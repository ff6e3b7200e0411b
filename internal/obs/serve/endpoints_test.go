package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"agnn/internal/obs/evlog"
	"agnn/internal/obs/flight"
	"agnn/internal/obs/metrics"
)

func TestHealthzEndpoint(t *testing.T) {
	s, err := Start("127.0.0.1:0", Options{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body, hdr := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	if strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz body %q", body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
}

func TestBuildinfoEndpoint(t *testing.T) {
	s, err := Start("127.0.0.1:0", Options{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	code, body, hdr := get(t, "http://"+s.Addr()+"/buildinfo")
	if code != http.StatusOK {
		t.Fatalf("/buildinfo status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var bi BuildInfo
	if err := json.Unmarshal([]byte(body), &bi); err != nil {
		t.Fatalf("/buildinfo not JSON: %v\n%s", err, body)
	}
	if bi.GoVersion == "" || bi.GOOS == "" || bi.GOARCH == "" {
		t.Fatalf("buildinfo incomplete: %+v", bi)
	}
	if bi.GOMAXPROCS < 1 || bi.PID < 1 {
		t.Fatalf("buildinfo runtime fields wrong: %+v", bi)
	}
}

// The /debug/flight endpoint serves the live event rings of the process's
// Default set as a reason="request" dump.
func TestDebugFlightEndpoint(t *testing.T) {
	main := evlog.Default.Log(-1)
	main.Record(evlog.KindCounter, evlog.Code("serve-endpoint-test"), main.Now(), 0, 11, 0, 0)

	s, err := Start("127.0.0.1:0", Options{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	status, body, hdr := get(t, "http://"+s.Addr()+"/debug/flight")
	if status != http.StatusOK {
		t.Fatalf("/debug/flight status %d", status)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("content type %q", ct)
	}
	var d flight.Dump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("/debug/flight not JSON: %v\n%s", err, body)
	}
	if d.Schema != flight.DumpSchema || d.Reason != "request" {
		t.Fatalf("dump header wrong: schema=%q reason=%q", d.Schema, d.Reason)
	}
	found := false
	for _, l := range d.Lanes {
		for _, ev := range l.Events {
			if ev.Name == "serve-endpoint-test" && ev.A == 11 {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("recorded event not visible through /debug/flight")
	}
}

// The index page must advertise the diagnostic surface, new routes
// included.
func TestIndexListsEndpoints(t *testing.T) {
	s, err := Start("127.0.0.1:0", Options{Registry: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, body, _ := get(t, "http://"+s.Addr()+"/")
	for _, want := range []string{"/metrics", "/report", "/debug/flight", "/healthz", "/buildinfo", "/debug/pprof/"} {
		if !strings.Contains(body, want) {
			t.Fatalf("index page missing %q:\n%s", want, body)
		}
	}
}
