package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// -compare a.jsonl b.jsonl applies the benchmark's bounds to two sets of
// runs (files written with -out; a set is several runs of each workload,
// taken alternately with the other set). One row per workload and metric:
//
//	same        medians differ by no more than the bound
//	worse       b's median is worse than a's by more than the bound
//	better      b's median is better than a's by more than the bound
//	unresolved  either set's spread (distance between its quartiles over its
//	            median) is wider than the bound, so the runs cannot tell
//
// Exact counts must be equal in every run of a seed across both sets (they
// may differ between seeds: another graph, another count). Bounds of the
// end-to-end metrics come from BENCHMARK.json; the workload-specific extras
// and the exact per-layer counts take theirs from the benchmark's registry.

type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{} // workload -> metric -> one value per run
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		seed := fmt.Sprint(rec.Provenance["seed"])
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v.Value)
			// Under "name@seed" too: exact counts are compared seed by seed.
			out[rec.Workload][name+"@"+seed] = append(out[rec.Workload][name+"@"+seed], v.Value)
		}
	}
	return out, sc.Err()
}

func compareFiles(pathA, pathB string) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %-26s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "change", "spread a", "spread b", "bound", "verdict")
	worse := 0
	for _, w := range workloadNames {
		var defs []metricDef
		for _, e := range bf.EndToEnd {
			defs = append(defs, metricDef{name: e.Name, better: e.Better, bound: e.Bound})
		}
		defs = append(defs, extras[w]...)
		for _, d := range perLayer {
			if d.exact {
				defs = append(defs, d)
			}
		}
		for _, d := range defs {
			va, vb := a[w][d.name], b[w][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict := judge(d, va, vb)
			if d.exact {
				verdict = judgeExact(d.name, a[w], b[w])
			}
			if verdict == "worse" || verdict == "differs" {
				worse++
			}
			ma, mb := median(va), median(vb)
			fmt.Printf("%-14s %-26s %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w, d.name, ma, mb, 100*(mb-ma)/math.Abs(ma), 100*spread(va), 100*spread(vb), 100*d.bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse or differing", worse)
	}
	return nil
}

// judgeExact compares an exact count seed by seed: every run of a seed, in
// either set, must have read the same value.
func judgeExact(name string, a, b map[string][]float64) string {
	for key, va := range a {
		if !strings.HasPrefix(key, name+"@") {
			continue
		}
		for _, vs := range [][]float64{va, b[key]} {
			for _, v := range vs {
				if v != va[0] {
					return "differs"
				}
			}
		}
	}
	return "same"
}

func judge(d metricDef, a, b []float64) string {
	ma, mb := median(a), median(b)
	change := (mb - ma) / math.Abs(ma) // positive: b is larger
	if d.better == "higher" {
		change = -change
	}
	switch {
	case change > d.bound:
		return "worse"
	case change < -d.bound:
		return "better"
	case spread(a) > d.bound || spread(b) > d.bound:
		return "unresolved"
	}
	return "same"
}
