package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the whole of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the registry in
// metrics.go in step, and holds both to the limits of the contract.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1-200 characters, has %d", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	same := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the registry", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, registry %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, w.name, w.unit, w.better)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) {
				t.Errorf("%s: name %q or unit %q outside the contract's alphabet", kind, g.Name, g.Unit)
			}
			if seen[g.Name] {
				t.Errorf("%s: name %q used twice", kind, g.Name)
			}
			seen[g.Name] = true
			if bounded != (g.Bound != nil) {
				t.Errorf("%s %s: bound present %t, want %t", kind, g.Name, g.Bound != nil, bounded)
			}
			if bounded && (*g.Bound != w.bound || w.bound > 0.25) {
				t.Errorf("%s %s: bound %v, registry %v (limit 0.25)", kind, g.Name, *g.Bound, w.bound)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd, true)
	same("per_layer", bj.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
	for _, d := range endToEnd {
		if d.bound > endToEnd[0].bound {
			t.Errorf("%s has bound %v, above setup_s's %v: set-up must have the largest", d.name, d.bound, endToEnd[0].bound)
		}
	}
}

// TestTrainStepsFloor: train-flat's loss first reaches its target at step
// 39-49 depending on the seed, so no -seconds may give it fewer than 60.
func TestTrainStepsFloor(t *testing.T) {
	for _, seconds := range []int{1, defaultSeconds, 60} {
		if n := fullSizes(seconds).trainSteps; n < 60 {
			t.Errorf("-seconds %d: %d training steps, want at least 60", seconds, n)
		}
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that each metric of the registry is reported exactly once with a
// finite value and its unit, and that every correctness check passes
// (closure fractions in band and the exact-count self-check among them).
func TestSmoke(t *testing.T) {
	cfg := config{seed: 1, size: "smoke", seconds: defaultSeconds, sz: smokeSizes()}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			run := runUntraced
			if traced {
				run = runTraced
			}
			r, err := run(cfg, w)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w, traced, err)
			}
			count := map[string]int{}
			units := map[string]string{}
			for _, m := range r.metrics {
				count[m.name]++
				units[m.name] = m.unit
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("%s traced=%t: %s = %v", w, traced, m.name, m.value)
				}
			}
			for _, d := range r.wanted() {
				if count[d.name] != 1 {
					t.Errorf("%s traced=%t: %s reported %d times", w, traced, d.name, count[d.name])
				}
				if units[d.name] != d.unit {
					t.Errorf("%s traced=%t: %s has unit %q, want %q", w, traced, d.name, units[d.name], d.unit)
				}
			}
			for _, c := range r.checks {
				if !c.ok {
					t.Errorf("%s traced=%t: check %s failed: %s", w, traced, c.name, c.detail)
				}
			}
			if r.attempted < 1 || r.failed != 0 {
				t.Errorf("%s traced=%t: attempted %d failed %d", w, traced, r.attempted, r.failed)
			}
		}
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(xs, n=4).
func TestSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 9, 14, 13, 10.5, 11.5, 12.5}
	// python3: q = statistics.quantiles(xs, n=4); (q[2]-q[0])/statistics.median(xs)
	const want = 0.24468085106382978
	if got := spread(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "t", better: "lower", bound: 0.10}
	higher := metricDef{name: "r", better: "higher", bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	noisy := []float64{0.8, 1.0, 1.2, 1.0, 0.7, 1.3}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, steady, "same"},
		{lower, steady, []float64{1.2, 1.21, 1.19, 1.2}, "worse"},
		{lower, steady, []float64{0.8, 0.81, 0.79, 0.8}, "better"},
		{higher, steady, []float64{0.8, 0.81, 0.79, 0.8}, "worse"},
		{lower, steady, noisy, "unresolved"},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.d.name, c.a, c.b, got, c.want)
		}
	}
	// An exact count may differ between seeds but not between runs of one.
	a := map[string][]float64{"n@1": {5, 5}, "n@2": {7}}
	if got := judgeExact("n", a, map[string][]float64{"n@1": {5}, "n@2": {7}}); got != "same" {
		t.Errorf("judgeExact on equal counts = %s", got)
	}
	if got := judgeExact("n", a, map[string][]float64{"n@1": {5}, "n@2": {8}}); got != "differs" {
		t.Errorf("judgeExact on a changed count = %s", got)
	}
}
