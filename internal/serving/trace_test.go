package serving

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"agnn/internal/obs/serve"
)

// TestPredictTracedTimingPopulated: the traced entry points must return a
// Timing with a non-empty trace ID and plausible per-stage decomposition —
// plan time and batch seeds are always observable for a served request.
func TestPredictTracedTimingPopulated(t *testing.T) {
	m, ds, _ := trainTiny(t)
	e := newTestEngine(t, m, ds)

	preds, tm, err := e.PredictTraced(context.Background(), []int{1, 3}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("want 2 predictions, got %d", len(preds))
	}
	if tm.TraceID == "" {
		t.Error("traced predict returned empty trace ID")
	}
	if tm.QueueNs < 0 || tm.BatchNs < 0 || tm.ExpandNs < 0 {
		t.Errorf("negative stage time: %+v", tm)
	}
	if tm.PlanNs <= 0 {
		t.Errorf("plan stage %dns, want > 0", tm.PlanNs)
	}
	if tm.Seeds < 2 {
		t.Errorf("batch seeds %d, want >= 2 (the request's own vertices)", tm.Seeds)
	}

	// A caller-supplied trace ID must ride through unchanged.
	_, tm2, err := e.PredictTraced(context.Background(), []int{0}, "client-abc-1")
	if err != nil {
		t.Fatal(err)
	}
	if tm2.TraceID != "client-abc-1" {
		t.Errorf("trace ID %q, want caller's client-abc-1", tm2.TraceID)
	}

	// Ego path shares the machinery.
	_, tm3, err := e.EgoTraced(context.Background(), 5, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if tm3.TraceID == "" || tm3.PlanNs <= 0 {
		t.Errorf("ego timing %+v", tm3)
	}
}

// TestNewTraceIDUnique: IDs must be unique within a process (monotonic
// counter) and carry the process prefix.
func TestNewTraceIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s", id)
		}
		seen[id] = true
		if !strings.Contains(id, "-") {
			t.Fatalf("trace ID %s missing prefix-counter separator", id)
		}
	}
}

// TestTraceHeaderPropagation: the HTTP layer must echo X-Agnn-Trace on
// success AND error responses, honor a client-supplied ID, and embed the
// per-stage timing in the response body.
func TestTraceHeaderPropagation(t *testing.T) {
	m, ds, _ := trainTiny(t)
	e := newTestEngine(t, m, ds)
	h := Handler(e, serve.Options{})
	srv := httptest.NewServer(h)
	defer srv.Close()

	post := func(path, body, trace string) *http.Response {
		t.Helper()
		req, err := http.NewRequest("POST", srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if trace != "" {
			req.Header.Set(TraceHeader, trace)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Server-assigned ID on a success response, echoed in header and body.
	resp := post("/v1/predict", `{"vertices":[0,2]}`, "")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("predict status %d: %s", resp.StatusCode, body)
	}
	hdr := resp.Header.Get(TraceHeader)
	if hdr == "" {
		t.Fatal("success response missing X-Agnn-Trace header")
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Trace == nil {
		t.Fatal("predict response missing trace timing")
	}
	if pr.Trace.TraceID != hdr {
		t.Errorf("body trace ID %q != header %q", pr.Trace.TraceID, hdr)
	}
	if pr.Trace.PlanNs <= 0 || pr.Trace.Seeds <= 0 {
		t.Errorf("response timing not populated: %+v", pr.Trace)
	}

	// Client-supplied ID must round-trip through header and body.
	resp = post("/v1/predict", `{"vertices":[1]}`, "edge-req-42")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(TraceHeader); got != "edge-req-42" {
		t.Errorf("header trace %q, want edge-req-42", got)
	}
	var pr2 PredictResponse
	if err := json.Unmarshal(body, &pr2); err != nil {
		t.Fatal(err)
	}
	if pr2.Trace == nil || pr2.Trace.TraceID != "edge-req-42" {
		t.Errorf("body trace %+v, want edge-req-42", pr2.Trace)
	}

	// Error responses still carry the header, so failed requests remain
	// correlatable in client logs.
	resp = post("/v1/predict", `{"vertices":[99999]}`, "edge-req-43")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("out-of-range status %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(TraceHeader); got != "edge-req-43" {
		t.Errorf("error response trace %q, want edge-req-43", got)
	}
	resp = post("/v1/ego", `not json`, "")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad-body status %d, want 400", resp.StatusCode)
	}
	if resp.Header.Get(TraceHeader) == "" {
		t.Error("bad-body error response missing X-Agnn-Trace header")
	}

	// Ego success carries timing too.
	resp = post("/v1/ego", `{"vertex":4,"hops":1}`, "")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ego status %d: %s", resp.StatusCode, body)
	}
	var er EgoResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Trace == nil || er.Trace.TraceID == "" {
		t.Errorf("ego response trace %+v", er.Trace)
	}
}
