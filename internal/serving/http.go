package serving

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"agnn/internal/obs/metrics"
	"agnn/internal/obs/serve"
)

// TraceHeader is the request/response header carrying the per-request
// trace ID. A client-supplied value is propagated through the pipeline
// and echoed back; otherwise the engine allocates one. Either way the
// response's trace timing decomposes the request's latency into queue,
// batch, expand and plan stages.
const TraceHeader = "X-Agnn-Trace"

// maxBodyBytes bounds the request body an inference endpoint decodes: a
// predict request naming a hundred thousand vertices fits.
const maxBodyBytes = 1 << 20

// PredictRequest is the POST /v1/predict body.
type PredictRequest struct {
	Vertices []int `json:"vertices"`
}

// PredictResponse is the /v1/predict reply.
type PredictResponse struct {
	Predictions []Prediction `json:"predictions"`
	Trace       *Timing      `json:"trace,omitempty"`
}

// EgoRequest is the POST /v1/ego body. Hops 0 uses the model depth.
type EgoRequest struct {
	Vertex int `json:"vertex"`
	Hops   int `json:"hops"`
}

// EgoResponse is the /v1/ego reply.
type EgoResponse struct {
	Prediction
	Hops  int     `json:"hops"`
	Trace *Timing `json:"trace,omitempty"`
}

// Handler returns the serving mux: POST /v1/predict and POST /v1/ego on
// top of the standard diagnostics endpoints (/metrics, /healthz, /report,
// pprof) from internal/obs/serve. Every inference endpoint records a
// per-endpoint request counter and latency histogram, plus live p50/p99
// gauges derived from the histogram.
func Handler(e *Engine, opt serve.Options) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", serve.Handler(opt))
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		instrument("predict", w, r, func() (any, error) {
			trace := traceFor(w, r)
			var req PredictRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				return nil, badRequest{err}
			}
			preds, tm, err := e.PredictTraced(r.Context(), req.Vertices, trace)
			if err != nil {
				return nil, err
			}
			return PredictResponse{Predictions: preds, Trace: &tm}, nil
		})
	})
	mux.HandleFunc("/v1/ego", func(w http.ResponseWriter, r *http.Request) {
		instrument("ego", w, r, func() (any, error) {
			trace := traceFor(w, r)
			var req EgoRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				return nil, badRequest{err}
			}
			p, tm, err := e.EgoTraced(r.Context(), req.Vertex, req.Hops, trace)
			if err != nil {
				return nil, err
			}
			hops := req.Hops
			if hops <= 0 {
				hops = e.Hops()
			}
			return EgoResponse{Prediction: p, Hops: hops, Trace: &tm}, nil
		})
	})
	return mux
}

// traceFor resolves the request's trace ID (client-supplied or fresh) and
// echoes it on the response before the body — error responses carry it too.
func traceFor(w http.ResponseWriter, r *http.Request) string {
	trace := r.Header.Get(TraceHeader)
	if trace == "" {
		trace = NewTraceID()
	}
	w.Header().Set(TraceHeader, trace)
	return trace
}

// badRequest marks a client error (malformed body, bad vertex id) → 400.
type badRequest struct{ error }

// instrument runs one inference handler with method enforcement, latency
// accounting and error → status mapping.
func instrument(endpoint string, w http.ResponseWriter, r *http.Request, fn func() (any, error)) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	metrics.ServeRequestsTotal.With(endpoint).Inc()
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	t0 := time.Now()
	payload, err := fn()
	dt := time.Since(t0).Seconds()
	h := metrics.ServeRequestSeconds.With(endpoint)
	h.Observe(dt)
	metrics.ServeLatencyP50.With(endpoint).Set(h.Quantile(0.5))
	metrics.ServeLatencyP99.With(endpoint).Set(h.Quantile(0.99))
	if err != nil {
		var br badRequest
		switch {
		case errors.As(err, &br), errors.Is(err, ErrBadRequest):
			http.Error(w, err.Error(), http.StatusBadRequest)
		case errors.Is(err, ErrOverloaded):
			http.Error(w, err.Error(), http.StatusTooManyRequests)
		case errors.Is(err, ErrStopped):
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(payload); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
