package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"agnn/internal/obs/evlog"
)

var update = flag.Bool("update", false, "rewrite golden files")

func osStat(p string) (int64, error) {
	fi, err := os.Stat(p)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// deterministicRun records a fixed little run: a nested pair on the main
// log, one collective on a rank's, and a two-point counter timeline.
func deterministicRun() *evlog.Set {
	const ms = int64(time.Millisecond)
	set := recordingSet()
	main := set.Log(-1)
	main.Record(evlog.KindSpan, Code("spmm"), 2*ms, ms, 0, 0, 0) // ends first
	main.Record(evlog.KindSpan, Code("train"), ms, 3*ms, 0, 0, 0)
	collective(set.Log(0), "allreduce", 5*ms, ms, 1024, 4)
	main.Record(evlog.KindSample, Code("arena bytes"), 7*ms, 0, 4096, 0, 0)
	main.Record(evlog.KindSample, Code("arena bytes"), 8*ms, 0, 8192, 0, 0)
	main.Record(evlog.KindSample, Code("comm bytes"), 9*ms, 0, 1024, 0, 0)
	return set
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, deterministicRun()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace drifted from golden file:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, deterministicRun()); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string          `json:"name"`
			Ph   string          `json:"ph"`
			Pid  *int            `json:"pid"`
			Tid  *int            `json:"tid"`
			Ts   *float64        `json:"ts"`
			Dur  *float64        `json:"dur"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", parsed.DisplayTimeUnit)
	}
	var metas, spans, counters int
	counterVals := map[string][]int64{}
	threadNames := map[string]bool{}
	for _, e := range parsed.TraceEvents {
		if e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %q missing pid/tid", e.Name)
		}
		switch e.Ph {
		case "M":
			metas++
			if e.Name == "thread_name" {
				var args map[string]string
				if err := json.Unmarshal(e.Args, &args); err != nil || args["name"] == "" {
					t.Fatalf("thread_name meta malformed: %s", e.Args)
				}
				threadNames[args["name"]] = true
			}
		case "X":
			spans++
			if e.Ts == nil || *e.Ts < 0 || e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("span %q has invalid ts/dur", e.Name)
			}
			if e.Name == "allreduce" {
				var args map[string]int64
				if err := json.Unmarshal(e.Args, &args); err != nil {
					t.Fatalf("span args malformed: %s", e.Args)
				}
				if args["bytes"] != 1024 || args["msgs"] != 4 {
					t.Fatalf("collective attrs not exported: %v", args)
				}
			}
		case "C":
			counters++
			if e.Ts == nil || *e.Ts < 0 {
				t.Fatalf("counter %q has invalid ts", e.Name)
			}
			var args map[string]int64
			if err := json.Unmarshal(e.Args, &args); err != nil {
				t.Fatalf("counter args malformed: %s", e.Args)
			}
			counterVals[e.Name] = append(counterVals[e.Name], args["value"])
		default:
			t.Fatalf("unexpected event phase %q", e.Ph)
		}
	}
	if spans != 3 {
		t.Fatalf("got %d X events, want 3", spans)
	}
	if counters != 3 {
		t.Fatalf("got %d C events, want 3", counters)
	}
	if v := counterVals["arena bytes"]; len(v) != 2 || v[0] != 4096 || v[1] != 8192 {
		t.Fatalf("arena bytes counter timeline wrong: %v", v)
	}
	if v := counterVals["comm bytes"]; len(v) != 1 || v[0] != 1024 {
		t.Fatalf("comm bytes counter timeline wrong: %v", v)
	}
	if !threadNames["main"] || !threadNames["rank 0"] {
		t.Fatalf("thread names missing: %v", threadNames)
	}
}
