// Package costmodel implements the BSP communication-cost analysis of
// Section 7: closed-form per-processor communication volumes for the
// global and local formulations of A-GNN layers, the Erdős–Rényi
// specialization of Section 7.3, and helpers that compare the predictions
// against the volumes measured by the simulated runtime (internal/dist).
//
// All volumes are in *words* (float64 values), following the paper's
// convention of counting the maximum number of words sent by any processor
// per GNN layer.
package costmodel

import (
	"math"

	"agnn/internal/obs/metrics"
)

// GlobalVolume returns the Section 7.1 bound for one layer of the global
// formulation: O(nk/√p + k²) words per processor. The constant in front of
// nk/√p captures the column broadcast of feature blocks and the row
// reduction of partial sums (≈2 ring traversals each); k² covers the
// replicated parameter traffic.
func GlobalVolume(n, k, p int) float64 {
	if p <= 1 {
		return 0
	}
	sp := math.Sqrt(float64(p))
	return 4*float64(n)*float64(k)/sp + float64(k*k)
}

// LocalVolume returns the Section 7 bound for one layer of the local
// (message-passing) formulation: up to Ω(nkd/p + k²) words per processor —
// each of the n/p owned vertices pulls the k-word features of up to d
// remote neighbors. The min with (n−n/p)·k accounts for per-rank halo
// deduplication: a rank never needs more than every non-owned feature row
// once.
func LocalVolume(n, k, d, p int) float64 {
	if p <= 1 {
		return 0
	}
	raw := float64(n) * float64(k) * float64(d) / float64(p)
	cap := float64(n-n/p) * float64(k)
	return math.Min(raw, cap) + float64(k*k)
}

// ERLocalVolume returns the Section 7.3 high-probability bound for
// Erdős–Rényi graphs G_{n,q}: O(n²kq/p + log n) words. For G(n, q) the
// expected number of distinct remote neighbors of a rank's n/p vertices is
// ≈ n·(1−(1−q)^{n/p}), which the bound upper-approximates by n²q/p in the
// sparse regime.
func ERLocalVolume(n, k int, q float64, p int) float64 {
	if p <= 1 {
		return 0
	}
	return float64(n)*float64(n)*float64(k)*q/float64(p) + math.Log(float64(n))
}

// ERExpectedHalo returns the expected number of distinct halo vertices per
// rank for an Erdős–Rényi graph — the deduplicated refinement of
// ERLocalVolume used to validate the simulated LocalEngine's measured halo.
func ERExpectedHalo(n int, q float64, p int) float64 {
	own := float64(n) / float64(p)
	return (float64(n) - own) * (1 - math.Pow(1-q, own))
}

// GlobalWins reports whether the theory predicts the global formulation
// moves less data: d ∈ ω(√p), evaluated as d > c·√p for the constant-factor
// threshold c implied by the two volume formulas.
func GlobalWins(n, k, d, p int) bool {
	return GlobalVolume(n, k, p) < LocalVolume(n, k, d, p)
}

// ERCrossoverQ returns the edge probability above which the global
// formulation is predicted to win for Erdős–Rényi graphs: q > √p/n
// (Section 7.3), scaled by the same constants as GlobalVolume/LocalVolume.
func ERCrossoverQ(n, p int) float64 {
	return 4 * math.Sqrt(float64(p)) / float64(n)
}

// WordsToBytes converts word counts to bytes (float64 = 8 bytes).
func WordsToBytes(words float64) float64 { return 8 * words }

// Prediction bundles the model outputs for one experimental configuration,
// for reporting alongside measured counters.
type Prediction struct {
	N, K, D, P  int
	Layers      int
	GlobalWords float64
	LocalWords  float64
}

// Predict evaluates both formulations for an L-layer model.
func Predict(n, k, d, p, layers int) Prediction {
	return Prediction{
		N: n, K: k, D: d, P: p, Layers: layers,
		GlobalWords: float64(layers) * GlobalVolume(n, k, p),
		LocalWords:  float64(layers) * LocalVolume(n, k, d, p),
	}
}

// Validation is the outcome of comparing an analytic communication
// prediction against the counters the simulated runtime measured — the
// closed loop between the Section 7 bounds and the Section 6 runtime.
type Validation struct {
	PredictedWords float64 `json:"predicted_words"`
	MeasuredWords  float64 `json:"measured_words"`
	Ratio          float64 `json:"ratio"` // measured / predicted; 0 when nothing was predicted
}

// Within reports whether the measurement is within factor f of the
// prediction in either direction.
func (v Validation) Within(f float64) bool {
	return WithinFactor(v.MeasuredWords, v.PredictedWords, f)
}

// ValidateComm compares a predicted max per-rank word count against the
// measured one and publishes both sides to the live metrics registry
// (agnn_comm_predicted_words / agnn_comm_measured_words), so the /metrics
// endpoint and -metrics run-reports carry the model-vs-measurement ratio.
func ValidateComm(predictedWords, measuredWords float64) Validation {
	metrics.CommPredictedWords.Set(predictedWords)
	metrics.CommMeasuredWords.Set(measuredWords)
	v := Validation{PredictedWords: predictedWords, MeasuredWords: measuredWords}
	if predictedWords > 0 {
		v.Ratio = measuredWords / predictedWords
	}
	return v
}

// TimeValidation is the latency-side counterpart of Validation: predicted
// vs measured mean per-layer wall time.
type TimeValidation struct {
	PredictedSeconds float64 `json:"predicted_seconds"`
	MeasuredSeconds  float64 `json:"measured_seconds"`
	Ratio            float64 `json:"ratio"` // measured / predicted; 0 when nothing was predicted
}

// Within reports whether the measurement is within factor f of the
// prediction in either direction.
func (v TimeValidation) Within(f float64) bool {
	return WithinFactor(v.MeasuredSeconds, v.PredictedSeconds, f)
}

// ValidateTime compares a predicted mean per-layer wall time against the
// measured one and publishes both sides to the live metrics registry
// (agnn_layer_predicted_seconds / agnn_layer_measured_seconds) — the
// latency-side closed loop that ValidateComm provides for volumes.
func ValidateTime(predictedSec, measuredSec float64) TimeValidation {
	metrics.LayerPredictedSeconds.Set(predictedSec)
	metrics.LayerMeasuredSeconds.Set(measuredSec)
	v := TimeValidation{PredictedSeconds: predictedSec, MeasuredSeconds: measuredSec}
	if predictedSec > 0 {
		v.Ratio = measuredSec / predictedSec
	}
	return v
}

// ValidateCriticalPath compares the α-β-γ model's predicted epoch time
// against the measured cross-rank critical path (internal/obs/causal) and
// publishes both sides as agnn_critpath_predicted_seconds /
// agnn_critpath_measured_seconds. Where ValidateTime checks mean layer
// latency, this checks the end-to-end dependency chain: a ratio well above
// 1 with a low per-layer ratio means the slowdown is in waits between
// layers (stragglers, serialization), not in the kernels themselves.
func ValidateCriticalPath(predictedSec, measuredSec float64) TimeValidation {
	metrics.CritPathPredictedSeconds.Set(predictedSec)
	metrics.CritPathMeasuredSeconds.Set(measuredSec)
	v := TimeValidation{PredictedSeconds: predictedSec, MeasuredSeconds: measuredSec}
	if predictedSec > 0 {
		v.Ratio = measuredSec / predictedSec
	}
	return v
}

// WithinFactor reports whether measured is within factor f of predicted
// (both directions); used by the verification tests and benchmarks to
// assert that the simulated runtime tracks the theory.
func WithinFactor(measured, predicted, f float64) bool {
	if predicted == 0 {
		return measured == 0
	}
	r := measured / predicted
	return r <= f && r >= 1/f
}
