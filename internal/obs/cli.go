package obs

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"agnn/internal/obs/flight"
	"agnn/internal/obs/metrics"
	"agnn/internal/obs/serve"
)

// CLI is the shared observability flag surface of the binaries: every
// command that does real work registers the same flags and brackets its
// run with Start/Stop.
//
//	var o obs.CLI
//	o.Register(flag.CommandLine)
//	flag.Parse()
//	if err := o.Start(); err != nil { ... }
//	defer o.Stop()
type CLI struct {
	Trace        string // Chrome trace-event JSON output path
	Metrics      string // aggregated run-report JSON output path
	CPUProfile   string // runtime/pprof CPU profile output path
	MemProfile   string // runtime/pprof heap profile output path
	Serve        string // live diagnostics HTTP address (/metrics, /report, /debug/pprof)
	MetricsFinal string // Prometheus snapshot written when the server shuts down
	FlightDir    string // directory for flight-recorder dumps (failures, SIGQUIT)

	recording bool
	cpuFile   *os.File
	server    *serve.Server
}

// Register adds the -trace, -metrics, -cpuprofile, -memprofile and -serve
// flags.
func (c *CLI) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Trace, "trace", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto) here")
	fs.StringVar(&c.Metrics, "metrics", "", "write the aggregated run-report JSON here (see agnn-report)")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile here")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile here (captured at exit)")
	fs.StringVar(&c.Serve, "serve", "", "serve live diagnostics on this address (/metrics, /report, /debug/pprof), e.g. :6060")
	fs.StringVar(&c.MetricsFinal, "metrics-final", "", "with -serve: write a final Prometheus metrics snapshot here at shutdown")
	fs.StringVar(&c.FlightDir, "flight-dir", "", "write flight-recorder dumps (rank failures, SIGQUIT) to this directory (default $AGNN_FLIGHT_DIR)")
}

// records reports whether the flags ask for the run to be recorded (-trace,
// -metrics or -serve; the live /report endpoint reads the recorded logs too).
func (c *CLI) records() bool { return c.Trace != "" || c.Metrics != "" || c.Serve != "" }

// report aggregates the recorded run (empty when nothing was recorded) and
// attaches the live metrics snapshot — the payload of both the -metrics
// file and the /report endpoint.
func (c *CLI) report() *Report {
	rep := BuildReport()
	// Critical path before the snapshot, so the agnn_critpath_* gauges it
	// publishes land in the same metrics payload.
	if sum := CriticalPath(); sum != nil {
		rep.CriticalPath = sum
		PublishCriticalPath(sum)
	}
	rep.Metrics = metrics.Default.Snapshot()
	return rep
}

// Start begins CPU profiling, switches recording on, arms the SIGQUIT
// flight-dump handler, and starts the diagnostics server, as requested by
// the flags.
func (c *CLI) Start() error {
	if c.FlightDir != "" {
		flight.SetDumpDir(c.FlightDir)
	}
	// Always-on: SIGQUIT dumps the logs' recent-event rings (to -flight-dir
	// / $AGNN_FLIGHT_DIR when set, stderr otherwise) — the postmortem for a
	// hung run that never reaches Stop.
	flight.NotifySignal(syscall.SIGQUIT)
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("obs: start cpu profile: %w", err)
		}
		c.cpuFile = f
	}
	if c.records() {
		StartRecording()
		c.recording = true
	}
	if c.Serve != "" {
		s, err := serve.Start(c.Serve, serve.Options{
			Registry:          metrics.Default,
			Report:            func() any { return c.report() },
			FinalSnapshotPath: c.MetricsFinal,
		})
		if err != nil {
			return err
		}
		c.server = s
		fmt.Fprintf(os.Stderr, "obs: serving diagnostics on http://%s (/metrics, /report, /debug/pprof)\n", s.Addr())
	}
	return nil
}

// Stop flushes every requested output: stops the CPU profile, writes the
// heap profile, the Chrome trace and the run-report, shuts down the
// diagnostics server, and switches recording off. Returns the first error
// encountered but attempts all outputs.
func (c *CLI) Stop() error {
	var first error
	keep := func(err error) {
		if first == nil && err != nil {
			first = err
		}
	}
	if c.cpuFile != nil {
		pprof.StopCPUProfile()
		keep(c.cpuFile.Close())
		c.cpuFile = nil
	}
	if c.recording {
		StopRecording()
		c.recording = false
		// Publish the critical-path gauges even without -metrics, so the
		// -metrics-final Prometheus snapshot carries them.
		PublishCriticalPath(CriticalPath())
		if c.Trace != "" {
			keep(WriteChromeTraceFile(c.Trace))
		}
	}
	if c.Metrics != "" {
		keep(c.report().WriteFile(c.Metrics))
	}
	if c.server != nil {
		// Graceful: let an in-flight scrape finish, bounded so a stuck
		// client cannot stall process exit.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		keep(c.server.Shutdown(ctx))
		cancel()
		c.server = nil
	}
	if c.MemProfile != "" {
		f, err := os.Create(c.MemProfile)
		if err != nil {
			keep(err)
		} else {
			runtime.GC() // materialize up-to-date heap statistics
			keep(pprof.WriteHeapProfile(f))
			keep(f.Close())
		}
	}
	return first
}
