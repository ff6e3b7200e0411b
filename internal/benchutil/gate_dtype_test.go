package benchutil

import (
	"strings"
	"testing"
)

// twinRecord builds an f32 record with its f64 contrast twin embedded, the
// shape BENCH_9.json commits: the dtype-twin checks ratio the pair.
func twinRecord(bpeRatio, gfRatio float64) Record {
	base, _ := gateRecords()
	base.Result.DType = "f32"
	base.Result.GFPerSec = 2.0 * gfRatio
	base.Result.BytesPerEdge = 500 * bpeRatio
	twin := base.Result
	twin.DType = "f64"
	twin.GFPerSec = 2.0
	twin.BytesPerEdge = 500
	base.Baseline = &twin
	return base
}

func TestGateRefusesCrossDtype(t *testing.T) {
	base, fresh := gateRecords()
	fresh.Result.DType = "f32" // baseline's empty DType normalizes to f64
	rep := GateCompare(base, fresh, DefaultTolerances())
	if rep.Pass {
		t.Fatalf("cross-dtype comparison passed:\n%s", rep.Summary())
	}
	if len(rep.Checks) != 1 || rep.Checks[0].Metric != "DType" {
		t.Fatalf("want a single DType refusal check, got:\n%s", rep.Summary())
	}
	if !strings.Contains(rep.Checks[0].Reason, "refused") {
		t.Fatalf("refusal reason should say so, got %q", rep.Checks[0].Reason)
	}
}

func TestGateDtypeTwinChecksPass(t *testing.T) {
	base := twinRecord(0.5, 1.6)
	fresh := base
	fresh.Baseline = nil // a fresh re-run has no embedded twin; only the
	// committed baseline's frozen pair is ratioed
	rep := GateCompare(base, fresh, DefaultTolerances())
	if !rep.Pass {
		t.Fatalf("healthy twin pair failed:\n%s", rep.Summary())
	}
	var sawBpe, sawGf bool
	for _, c := range rep.Checks {
		switch c.Metric {
		case "F32BytesPerEdgeX":
			sawBpe = true
			if c.Delta != 0.5 {
				t.Errorf("BytesPerEdge ratio %v, want 0.5", c.Delta)
			}
		case "F32GFPerSecX":
			sawGf = true
			if c.Delta != 1.6 {
				t.Errorf("GFPerSec ratio %v, want 1.6", c.Delta)
			}
		}
	}
	if !sawBpe || !sawGf {
		t.Fatalf("twin checks missing from report:\n%s", rep.Summary())
	}
}

func TestGateDtypeTwinChecksFail(t *testing.T) {
	cases := []struct {
		name     string
		bpe, gf  float64
		badCheck string
	}{
		{"bytes ratio too high", 0.7, 1.6, "F32BytesPerEdgeX"},
		{"throughput ratio too low", 0.5, 1.1, "F32GFPerSecX"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := twinRecord(tc.bpe, tc.gf)
			fresh := base
			fresh.Baseline = nil
			rep := GateCompare(base, fresh, DefaultTolerances())
			if rep.Pass {
				t.Fatalf("degraded twin pair passed:\n%s", rep.Summary())
			}
			for _, c := range rep.Checks {
				if c.Metric == tc.badCheck && !c.OK {
					return
				}
			}
			t.Fatalf("expected %s to fail:\n%s", tc.badCheck, rep.Summary())
		})
	}
}

func TestGateDtypeTwinChecksSkipWithoutRoofline(t *testing.T) {
	base := twinRecord(0.5, 1.6)
	base.Result.GFPerSec, base.Baseline.GFPerSec = 0, 0
	fresh := base
	fresh.Baseline = nil
	rep := GateCompare(base, fresh, DefaultTolerances())
	for _, c := range rep.Checks {
		if c.Metric == "F32GFPerSecX" {
			if !c.Skipped {
				t.Fatalf("GFPerSec twin check should skip without roofline figures:\n%s", rep.Summary())
			}
			return
		}
	}
	t.Fatal("F32GFPerSecX check missing")
}

// TestGateSameDtypeTwinIgnored: an overlap record's sequential twin shares
// the dtype, so no twin ratio checks appear.
func TestGateSameDtypeTwinIgnored(t *testing.T) {
	base, fresh := gateRecords()
	twin := base.Result
	base.Baseline = &twin
	rep := GateCompare(base, fresh, DefaultTolerances())
	for _, c := range rep.Checks {
		if strings.HasPrefix(c.Metric, "F32") {
			t.Fatalf("same-dtype twin produced dtype checks:\n%s", rep.Summary())
		}
	}
}

// TestRunSpecRefusesSilentF64 pins down the f32 configuration guards: every
// combination that would execute direct f64 kernels under an f32 stamp must
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

// TestRunSpecF32PlannedStampsRoofline: f32 single-rank inference runs the
// compiled inference plans and reports dtype-aware roofline figures.
func TestRunSpecF32PlannedStampsRoofline(t *testing.T) {
	res, err := RunSpec(Spec{Model: "AGNN", Dataset: "uniform", Vertices: 64, Edges: 256,
		Features: 4, Layers: 1, Inference: true, DType: "f32",
		Repeat: 1, Warmup: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.DType != "f32" {
		t.Errorf("result dtype %q, want the canonical f32 stamp", res.DType)
	}
	if res.BytesPerEdge <= 0 || res.GFPerSec <= 0 {
		t.Errorf("f32 inference left roofline figures empty: bpe=%v gf=%v",
			res.BytesPerEdge, res.GFPerSec)
	}
}

// TestCommittedBench9StillGates: BENCH_9.json was captured when Spec still
// carried a PlanInfer switch. The record must keep decoding (the stale key
// is ignored), its spec must still run — f32 single-rank inference needs no
// switch — and a fresh record of that spec, scaled down here, must be
// comparable: same dtype stamp, the frozen twin ratios checked, and every
// figure the baseline gates on present in the fresh run.
func TestCommittedBench9StillGates(t *testing.T) {
	base, err := ReadRecordFile("../../BENCH_9.json")
	if err != nil {
		t.Fatal(err)
	}
	spec := base.Result.Spec
	if spec.DType != "f32" || !spec.Inference || spec.Ranks != 1 {
		t.Fatalf("BENCH_9.json is no longer the f32 single-rank inference record: %+v", spec)
	}
	spec.Vertices, spec.Edges, spec.Repeat, spec.Warmup = 256, 2048, 1, 0
	res, err := RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep := GateCompare(base, NewRecord(res), DefaultTolerances())
	fresh := make(map[string]GateCheck)
	for _, c := range rep.Checks {
		fresh[c.Metric] = c
	}
	if c, refused := fresh["DType"]; refused {
		t.Fatalf("comparison refused: %s", c.Reason)
	}
	for _, m := range []string{"F32BytesPerEdgeX", "F32GFPerSecX"} {
		if c, ok := fresh[m]; !ok || c.Skipped || !c.OK {
			t.Errorf("frozen twin check %s: %+v", m, c)
		}
	}
	for _, m := range []string{"MedianSec", "PeakArenaBytes", "GFPerSec"} {
		if c, ok := fresh[m]; !ok || c.Skipped || c.Fresh <= 0 {
			t.Errorf("fresh record does not carry %s: %+v", m, c)
		}
	}
}
