// Command bench is the repository's benchmark: four workloads, measured
// from outside by timing calls into the program's public functions. See
// README.md in this directory for the metrics, the workloads and why each
// exists, and BENCHMARK.json at the repository root for the contract a
// later change is judged by.
//
//	go run . -workload infer-hub            end-to-end metrics, tracing off
//	go run . -workload infer-hub -traced    per-layer metrics
//	go run . -all [-traced] [-size smoke]   every workload
//	go run . -compare a.jsonl b.jsonl       two sets of -out records
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
)

type metric struct {
	name  string
	value float64
	unit  string
}

type check struct {
	name, detail string
	ok           bool
}

// report collects what one run of one workload prints.
type report struct {
	workload  string
	traced    bool
	metrics   []metric
	notes     []string // "key value" lines that are not metrics
	checks    []check
	attempted int
	failed    int
	losses    []float64 // of a training workload's steps, for the traced run's bitwise self-check
}

func (r *report) put(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name, v, unit})
}

func (r *report) note(key, value string) { r.notes = append(r.notes, key+" "+value) }

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, fmt.Sprintf(format, args...), ok})
}

func (r *report) get(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

func (r *report) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// config is what the command line fixes for a run.
type config struct {
	seed    int64
	size    string // "full" or "smoke"
	seconds int
	sz      sizes
}

// The four workloads, in the order -all runs them.
var workloadNames = []string{"infer-hub", "train-flat", "dist-grid-tcp", "serve-ego"}

func main() {
	var (
		workload = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
		all      = flag.Bool("all", false, "run every workload")
		traced   = flag.Bool("traced", false, "per-layer run: spans around every layer call, then the layer and host probes")
		trace    = flag.Int("trace", 0, "1 is -traced (the form the benchmark driver passes)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		size     = flag.String("size", "full", "full or smoke")
		seconds  = flag.Int("seconds", defaultSeconds, "length of the timed part the step counts are scaled to")
		out      = flag.String("out", "", "append one JSON record per workload to this file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.jsonl b.jsonl")
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal("%v", err)
		}
		return
	}
	cfg := config{seed: *seed, size: *size, seconds: *seconds}
	switch *size {
	case "full":
		cfg.sz = fullSizes(*seconds)
	case "smoke":
		cfg.sz = smokeSizes()
	default:
		fatal("unknown -size %q", *size)
	}
	names := []string{*workload}
	if *all {
		names = workloadNames
	} else if !slices.Contains(workloadNames, *workload) {
		fatal("unknown -workload %q; want one of %s", *workload, strings.Join(workloadNames, ", "))
	}
	ok := true
	for i, name := range names {
		if i > 0 {
			forgetPeakRSS()
		}
		var r *report
		var err error
		if *traced || *trace == 1 {
			r, err = runTraced(cfg, name)
		} else {
			r, err = runUntraced(cfg, name)
		}
		if err != nil {
			fatal("%s: %v", name, err)
		}
		ok = r.print(cfg, !*all) && ok
		if *out != "" {
			if err := r.appendTo(*out, cfg); err != nil {
				fatal("%v", err)
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runUntraced runs one workload with tracing off: the end-to-end metrics.
func runUntraced(cfg config, name string) (*report, error) {
	r := &report{workload: name}
	var err error
	switch name {
	case "infer-hub":
		err = genHub(cfg).run(cfg, r)
	case "train-flat":
		err = genFlat(cfg).run(cfg, r)
	case "dist-grid-tcp":
		err = genGrid(cfg).run(cfg, r)
	case "serve-ego":
		err = genEgo(cfg).run(cfg, r)
	}
	return r, err
}

// provenance is printed with every result and stored in every record.
func provenance(cfg config) map[string]any {
	llc, levels := cacheSizes()
	return map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"caches":     levels,
		"llc_bytes":  llc,
		"seed":       cfg.seed,
		"size":       cfg.size,
		"seconds":    cfg.seconds,
	}
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// wanted is the set of metric names the driver's result line must hold.
func (r *report) wanted() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// print writes the run as text: provenance, every metric as "name value
// unit", every check. With resultLine it ends with the one-line JSON result
// the benchmark driver reads. It returns whether the run was correct and
// complete.
func (r *report) print(cfg config, resultLine bool) bool {
	fmt.Printf("# workload %s traced %t\n", r.workload, r.traced)
	prov := provenance(cfg)
	for _, k := range []string{"go", "gomaxprocs", "nproc", "caches", "seed", "size", "seconds"} {
		fmt.Printf("# %s %v\n", k, prov[k])
	}
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, m := range r.metrics {
		fmt.Printf("%s %s %s\n", m.name, fmtFloat(m.value), m.unit)
	}
	ok := r.correct()
	for _, c := range r.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAILED"
		}
		fmt.Printf("check %s %s: %s\n", c.name, verdict, c.detail)
	}
	line := map[string]any{}
	for _, d := range r.wanted() {
		v := r.get(d.name)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Printf("check metric-present FAILED: %s is missing or not finite\n", d.name)
			ok = false
			continue
		}
		line[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	fmt.Printf("# attempted %d failed %d correct %t\n", r.attempted, r.failed, ok)
	if resultLine {
		b, _ := json.Marshal(map[string]any{"correct": ok, "attempted": r.attempted,
			"failed": r.failed, "metrics": line})
		fmt.Println(string(b))
	}
	return ok
}

// record is one line of an -out file.
type record struct {
	Workload   string                 `json:"workload"`
	Traced     bool                   `json:"traced"`
	Provenance map[string]any         `json:"provenance"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Metrics    map[string]recordValue `json:"metrics"`
}

type recordValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) appendTo(path string, cfg config) error {
	rec := record{Workload: r.workload, Traced: r.traced, Provenance: provenance(cfg),
		Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]recordValue{}}
	for _, m := range r.metrics {
		rec.Metrics[m.name] = recordValue{m.value, m.unit}
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// forgetPeakRSS gives memory back and resets the resident-set high-water
// mark, so that with -all each workload's peak_rss_mb is its own and not the
// largest so far. Where the kernel refuses, the mark stays.
func forgetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort by design
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// repoRoot finds the directory that holds BENCHMARK.json: the working
// directory when the command runs from the repository root, its parent
// when it runs from bench/.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}
