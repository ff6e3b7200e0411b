package benchutil

import (
	"bytes"
	"strings"
	"testing"
)

func quickSpec() Spec {
	return Spec{Model: "GAT", Dataset: "kronecker", Vertices: 256, Edges: 2048,
		Features: 4, Layers: 2, Ranks: 1, Engine: EngineGlobal,
		Inference: true, Repeat: 2, Warmup: 1, Seed: 1}
}

func TestSpecDefaults(t *testing.T) {
	d := Spec{}.Defaults()
	if d.Features != 16 || d.Layers != 3 || d.Ranks != 1 || d.Repeat != 10 ||
		d.Warmup != 2 || d.BatchSize != 16384 || d.Engine != EngineGlobal ||
		d.Dataset != "kronecker" {
		t.Fatalf("bad defaults %+v", d)
	}
}

func TestBuildGraphDatasets(t *testing.T) {
	for _, ds := range []string{"kronecker", "uniform", "makg"} {
		s := quickSpec()
		s.Dataset = ds
		a, err := BuildGraph(s)
		if err != nil {
			t.Fatalf("%s: %v", ds, err)
		}
		if a.Rows == 0 || a.NNZ() == 0 {
			t.Fatalf("%s: empty graph", ds)
		}
	}
	if _, err := BuildGraph(Spec{Dataset: "nope"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestBuildGraphKroneckerRoundsToPowerOfTwo(t *testing.T) {
	s := quickSpec()
	s.Vertices = 300 // not a power of two → rounds down to 256
	a, err := BuildGraph(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 256 {
		t.Fatalf("kronecker n = %d, want 256", a.Rows)
	}
}

func TestRunSpecSingleNode(t *testing.T) {
	for _, engine := range []Engine{EngineGlobal, EngineLocal} {
		for _, inf := range []bool{true, false} {
			s := quickSpec()
			s.Engine = engine
			s.Inference = inf
			r, err := RunSpec(s)
			if err != nil {
				t.Fatalf("%s inf=%v: %v", engine, inf, err)
			}
			if r.MedianSec <= 0 {
				t.Fatalf("%s: non-positive runtime", engine)
			}
			if r.CommBytesMax != 0 {
				t.Fatalf("single-node run should have no comm, got %d", r.CommBytesMax)
			}
		}
	}
}

// TestRunSpecDistributed runs every engine on four ranks. The volume is per
// execution, so for the engines whose executions all send the same (every
// one but the sampled mini-batch) it must not depend on Repeat: what an
// engine sends while it is constructed — the local engine's halo-request
// Alltoallv — is not part of it.
func TestRunSpecDistributed(t *testing.T) {
	cases := []struct {
		engine Engine
		inf    bool
		fixed  bool // every execution sends the same volume
	}{
		{EngineGlobal, true, true}, {EngineGlobal, false, true},
		{EngineRows, true, true}, {EngineRows, false, true},
		{EngineLocal, true, true}, {EngineMiniBatch, false, false},
	}
	for _, c := range cases {
		s := quickSpec()
		s.Ranks = 4
		s.Engine = c.engine
		s.Inference = c.inf
		s.BatchSize = 64
		s.Repeat = 1
		r, err := RunSpec(s)
		if err != nil {
			t.Fatalf("%s inf=%v: %v", c.engine, c.inf, err)
		}
		if r.CommBytesMax == 0 {
			t.Fatalf("%s: distributed run reported zero communication", c.engine)
		}
		if r.MedianSec <= 0 || r.NetModelSec <= 0 {
			t.Fatalf("%s: bad timing %v / %v", c.engine, r.MedianSec, r.NetModelSec)
		}
		// The word laws are forward-only: a training run is not compared with
		// them, and its CSV row says so.
		var row bytes.Buffer
		if err := r.WriteCSV(&row, "t"); err != nil {
			t.Fatal(err)
		}
		na := strings.HasSuffix(strings.TrimSpace(row.String()), ",NA")
		if c.inf && (r.PredictedWords <= 0 || r.CommRatio <= 0 || na) ||
			!c.inf && (r.PredictedWords != 0 || r.CommRatio != 0 || !na) {
			t.Errorf("%s inf=%v: predicted %v words, ratio %v, CSV row %q: want a prediction for inference only",
				c.engine, c.inf, r.PredictedWords, r.CommRatio, row.String())
		}
		if !c.fixed {
			continue
		}
		s.Repeat = 7
		r7, err := RunSpec(s)
		if err != nil {
			t.Fatalf("%s inf=%v repeat=7: %v", c.engine, c.inf, err)
		}
		if r7.CommBytesMax != r.CommBytesMax || r7.CommMsgsMax != r.CommMsgsMax {
			t.Errorf("%s inf=%v: volume depends on Repeat: %d B / %d msgs at 1, %d B / %d msgs at 7",
				c.engine, c.inf, r.CommBytesMax, r.CommMsgsMax, r7.CommBytesMax, r7.CommMsgsMax)
		}
	}
}

func TestRunSpecRejectsBadModel(t *testing.T) {
	s := quickSpec()
	s.Model = "GIN"
	if _, err := RunSpec(s); err == nil {
		t.Fatal("unknown model accepted")
	}
	s = quickSpec()
	s.Engine = "serve" // at one rank an unknown engine used to run as global
	if _, err := RunSpec(s); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestRunSpecRejectsNonSquareGlobalRanks(t *testing.T) {
	s := quickSpec()
	s.Ranks = 2
	if _, err := RunSpec(s); err == nil {
		t.Fatal("non-square rank count accepted for the global engine")
	}
}

func TestCSVOutput(t *testing.T) {
	r, err := RunSpec(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSVHeader(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(&buf, "fig6"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d", len(lines))
	}
	if cols := strings.Split(lines[0], ","); len(cols) != len(strings.Split(lines[1], ",")) {
		t.Fatal("header and row column counts differ")
	}
	if !strings.HasPrefix(lines[1], "fig6,GAT,global,kronecker,inference,1,256,") {
		t.Fatalf("unexpected CSV row %q", lines[1])
	}
}

func TestFigureSweepsWellFormed(t *testing.T) {
	for _, sc := range []Scale{ScaleSmall, ScaleFull} {
		figs := AllFigures(sc)
		if len(figs) != 5 {
			t.Fatalf("expected 5 figures, got %d", len(figs))
		}
		for _, f := range figs {
			if len(f.Specs) == 0 || f.ID == "" || f.Title == "" {
				t.Fatalf("figure %q malformed", f.ID)
			}
			for _, s := range f.Specs {
				s = s.Defaults()
				if _, err := BuildGraph(Spec{Dataset: s.Dataset, Vertices: 256,
					Edges: 1024, Seed: 1}); err != nil {
					t.Fatalf("%s: dataset %q unbuildable: %v", f.ID, s.Dataset, err)
				}
				if s.Engine == EngineGlobal && s.Ranks > 1 {
					sq := 1
					for sq*sq < s.Ranks {
						sq++
					}
					if sq*sq != s.Ranks {
						t.Fatalf("%s: global engine with non-square ranks %d", f.ID, s.Ranks)
					}
				}
			}
		}
	}
}

func TestFigureByID(t *testing.T) {
	if _, err := FigureByID("fig6", ScaleSmall); err != nil {
		t.Fatal(err)
	}
	if _, err := FigureByID("fig99", ScaleSmall); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

// TestFig6SmallEndToEnd runs the entire small-scale Fig. 6 sweep — the
// smoke test that every figure's code path executes.
func TestFig6SmallEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep test skipped in -short mode")
	}
	f := Fig6(ScaleSmall)
	var buf bytes.Buffer
	if err := WriteCSVHeader(&buf); err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Specs {
		r, err := RunSpec(s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		if err := r.WriteCSV(&buf, f.ID); err != nil {
			t.Fatal(err)
		}
	}
	rows := strings.Count(buf.String(), "\n")
	if rows != len(f.Specs)+1 {
		t.Fatalf("wrote %d rows for %d specs", rows, len(f.Specs))
	}
}

func TestRunSpecRowsEngine(t *testing.T) {
	s := quickSpec()
	s.Model = "VA"
	s.Ranks = 4
	s.Engine = EngineRows
	r, err := RunSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.CommBytesMax == 0 || r.MedianSec <= 0 {
		t.Fatalf("bad measurement %+v", r)
	}
	// VA crosses one k-wide matrix per layer, H: the p×1 grid's ring
	// allgather sends exactly the words costmodel.RowsVolume predicts.
	if r.CommRatio != 1 {
		t.Errorf("words ratio %v, want 1", r.CommRatio)
	}
	if r.MeanLayerSec <= 0 || r.PredictedLayerSec <= 0 || r.LayerTimeRatio <= 0 {
		t.Errorf("layer-time validation unset: %+v", r)
	}
}

// TestRunSpecRefusesSilentF64 pins down the f32 configuration guards: every
// combination that would execute direct f64 kernels under an f32 label must
// be refused before any work runs.
func TestRunSpecRefusesSilentF64(t *testing.T) {
	base := Spec{Model: "AGNN", Vertices: 64, Edges: 256, Features: 4, Layers: 1,
		Repeat: 1, Warmup: 0}
	cases := []struct {
		name   string
		mutate func(*Spec)
		frag   string
	}{
		{"bad dtype", func(s *Spec) { s.DType = "f16" }, "unknown dtype"},
		{"f32 local engine", func(s *Spec) { s.DType = "f32"; s.Engine = EngineLocal }, "direct f64"},
		{"f32 minibatch engine", func(s *Spec) { s.DType = "f32"; s.Engine = EngineMiniBatch }, "direct f64"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mutate(&s)
			_, err := RunSpec(s)
			if err == nil {
				t.Fatal("RunSpec accepted the configuration")
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}
