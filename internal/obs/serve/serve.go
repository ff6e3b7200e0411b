// Package serve is the opt-in HTTP diagnostics endpoint of the binaries:
// a tiny stdlib server exposing the live metrics registry in Prometheus
// exposition format (/metrics), the standard pprof handlers
// (/debug/pprof/*), a JSON run-report snapshot (/report), the flight
// recorder's recent-event ring (/debug/flight), a liveness probe
// (/healthz), and the binary's build identity (/buildinfo), so a
// long-running training or benchmark job can be inspected while it runs
// instead of only post-mortem.
//
// The package intentionally does not import internal/obs — it accepts the
// /report payload as a closure — so obs.CLI can start a server without an
// import cycle.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"agnn/internal/obs/evlog"
	"agnn/internal/obs/flight"
	"agnn/internal/obs/metrics"
)

// Options configures the diagnostics handler.
type Options struct {
	// Registry is the metrics registry behind /metrics and the metrics
	// section of /report. Nil means metrics.Default.
	Registry *metrics.Registry
	// Report, when set, produces the /report JSON payload (typically the
	// obs run-report with the metrics snapshot attached). Nil serves the
	// registry snapshot alone.
	Report func() any
	// FinalSnapshotPath, when set, makes shutdown write one last Prometheus
	// exposition of the registry to this file — the terminal scrape a
	// monitoring system would otherwise miss when the process exits between
	// scrape intervals.
	FinalSnapshotPath string
}

func (o Options) registry() *metrics.Registry {
	if o.Registry != nil {
		return o.Registry
	}
	return metrics.Default
}

// Handler returns the diagnostics mux: /metrics, /report, /debug/pprof/*.
func Handler(opt Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, `<html><body><h1>agnn diagnostics</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>
<li><a href="/report">/report</a> — JSON run-report snapshot</li>
<li><a href="/debug/flight">/debug/flight</a> — flight-recorder event ring</li>
<li><a href="/healthz">/healthz</a> — liveness probe</li>
<li><a href="/buildinfo">/buildinfo</a> — binary build identity</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — pprof profiles</li>
</ul></body></html>`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := opt.registry().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		var payload any
		if opt.Report != nil {
			payload = opt.Report()
		} else {
			payload = map[string]any{"metrics": opt.registry().Snapshot()}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(payload); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/flight", flight.Handler(evlog.Default))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/buildinfo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(buildInfo()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// BuildInfo is the /buildinfo payload: what binary is answering, built
// from what, on what runtime — the first question of any incident triage.
type BuildInfo struct {
	GoVersion  string `json:"go_version"`
	Path       string `json:"path,omitempty"`       // main module path
	GitCommit  string `json:"git_commit,omitempty"` // embedded VCS revision
	GitDirty   bool   `json:"git_dirty,omitempty"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	PID        int    `json:"pid"`
}

func buildInfo() BuildInfo {
	b := BuildInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PID:        os.Getpid(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		b.Path = bi.Main.Path
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				b.GitCommit = kv.Value
			case "vcs.modified":
				b.GitDirty = kv.Value == "true"
			}
		}
	}
	return b
}

// Server is a running diagnostics endpoint.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	opt   Options
	flush sync.Once
}

// Start listens on addr (":0" picks a free port) and serves the
// diagnostics handler in a background goroutine.
func Start(addr string, opt Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, opt: opt, srv: &http.Server{
		Handler:           Handler(opt),
		ReadHeaderTimeout: 5 * time.Second,
	}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound address ("127.0.0.1:43121").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Shutdown stops the server gracefully: new connections are refused while
// in-flight scrapes run to completion, bounded by ctx — a scrape still
// open at the deadline is cut off by an immediate close. The final metrics
// snapshot (when configured) is written either way.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		if cerr := s.srv.Close(); cerr != nil {
			err = cerr
		}
	}
	if ferr := s.writeFinalSnapshot(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// Close stops the server immediately, dropping in-flight scrapes. The
// final metrics snapshot (when configured) is still written.
func (s *Server) Close() error {
	err := s.srv.Close()
	if ferr := s.writeFinalSnapshot(); ferr != nil && err == nil {
		err = ferr
	}
	return err
}

// writeFinalSnapshot flushes the registry once per Server lifetime.
func (s *Server) writeFinalSnapshot() error {
	if s.opt.FinalSnapshotPath == "" {
		return nil
	}
	var err error
	s.flush.Do(func() {
		var f *os.File
		f, err = os.Create(s.opt.FinalSnapshotPath)
		if err != nil {
			return
		}
		if werr := s.opt.registry().WritePrometheus(f); werr != nil {
			f.Close()
			err = werr
			return
		}
		err = f.Close()
	})
	return err
}
