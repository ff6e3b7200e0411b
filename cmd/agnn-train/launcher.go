// Multi-process training over the wire transport (docs/ROBUSTNESS.md).
//
// Worker mode (-transport tcp -rank N -world P -rendezvous host:port) runs
// ONE rank of the job in this process: every worker parses the same
// command line, rebuilds the same dataset and model deterministically, and
// joins the mesh at the rendezvous address. Launcher mode (-launch) spawns
// -world workers of this same binary over loopback, supervises them, and
// on a worker failure relaunches the survivors — one rank fewer when
// -elastic is set — resuming from -checkpoint-dir.

package main

import (
	"flag"
	"fmt"
	gonet "net"
	"os"
	"os/exec"
	"strconv"
	"time"

	"agnn/internal/costmodel"
	distnet "agnn/internal/dist/net"
	"agnn/internal/distgnn"
	"agnn/internal/gnn"
	"agnn/internal/graph"
)

// runWorker executes one rank of a multi-process world and exits nonzero
// on failure, which is the signal the launcher supervises on.
func runWorker(m *gnn.Model, ds *graph.Dataset, spec distgnn.TrainSpec, o distOpts) {
	if spec.P < 1 {
		fatal(fmt.Errorf("-transport tcp needs -world >= 1 (or -p)"))
	}
	if o.rank < 0 || o.rank >= spec.P {
		fatal(fmt.Errorf("-rank %d outside world [0, %d)", o.rank, spec.P))
	}
	if o.rendezvous == "" {
		fatal(fmt.Errorf("-transport tcp needs -rendezvous (rank 0's listen address)"))
	}

	tcfg := distnet.TCPConfig{Rank: o.rank, Size: spec.P, Rendezvous: o.rendezvous}
	inj := o.injector(spec.P, o.rank == 0)
	if inj != nil && inj.Spec().HasWire() {
		tcfg.OnWire = func(attempt int) (bool, time.Duration) {
			act := inj.OnWire(o.rank, attempt)
			return act.Drop, act.Delay
		}
	}
	spec.Faults = inj

	ep, err := distnet.DialTCP(tcfg)
	fatal(err)
	defer ep.Close()

	res, werr := distgnn.TrainWorker(spec, ep)

	// α-β wire-time validation: compare the latency-bandwidth model against
	// the socket time this endpoint actually spent, and publish both gauges.
	ws := ep.WireStats()
	v := costmodel.ValidateWire(costmodel.DefaultWireModel(),
		int64(ws.FramesTx), int64(ws.BytesTx), float64(ws.WriteNanos)/1e9)
	if o.rank == 0 {
		fmt.Printf("wire: tx %d frames / %d bytes, %d dial retries, %d reconnects; α-β predicted %.3gs measured %.3gs (ratio %.2f)\n",
			ws.FramesTx, ws.BytesTx, ws.DialRetries, ws.Reconnects,
			v.PredictedSeconds, v.MeasuredSeconds, v.Ratio)
	}
	if dumpNonFinite(werr) {
		fmt.Fprintln(os.Stderr, "agnn-train:", werr)
		os.Exit(distgnn.ExitNonFinite)
	}
	fatal(werr)
	if o.rank == 0 {
		finish(m, ds, res, o.savePath)
	}
}

// launchWorkers runs the job as generations of worker processes of this
// binary over loopback TCP, under distgnn.Supervise's restart policy: on a
// worker failure every survivor unwinds (ErrRankFailed) and exits nonzero,
// and the next generation — one rank fewer when -elastic is set and the
// floor allows — resumes from the last durable checkpoint.
func launchWorkers(spec distgnn.TrainSpec, o distOpts) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if spec.P < 1 {
		return fmt.Errorf("-launch needs -world >= 1 (or -p)")
	}
	base := forwardArgs(map[string]bool{
		"launch": true, "transport": true, "rank": true, "world": true,
		"rendezvous": true, "faults": true, "resume": true, "p": true,
	})
	var failed error // the last generation's, which the next one relaunches after
	last, err := distgnn.Supervise(spec, func(g distgnn.Generation) error {
		if failed != nil {
			fmt.Printf("%v; relaunching at world=%d from checkpoint (epoch %d)\n", failed, g.P, g.From)
		}
		failed = runGeneration(self, base, o, g)
		return failed
	})
	if err == nil && last.N > 0 {
		fmt.Printf("launch: recovered after %d relaunch(es) at world=%d\n", last.N, last.P)
	}
	return err
}

// runGeneration starts g.P workers, waits for every one of them and maps
// their exit statuses for Supervise. Each generation meets at a fresh
// rendezvous (the first at -rendezvous when set), and only the first gets
// -faults: a relaunched world must not replay the crash.
func runGeneration(self string, base []string, o distOpts, g distgnn.Generation) error {
	rdv := o.rendezvous
	if rdv == "" || g.N > 0 {
		var err error
		if rdv, err = reserveLoopbackAddr(); err != nil {
			return err
		}
	}
	args := append([]string(nil), base...)
	args = append(args, "-transport=tcp", "-world="+strconv.Itoa(g.P), "-rendezvous="+rdv)
	if g.N == 0 && o.faults != "" {
		args = append(args, "-faults="+o.faults)
	}
	if g.Resume {
		args = append(args, "-resume=true")
	}

	fmt.Printf("launch: generation %d, %d processes, rendezvous %s\n", g.N, g.P, rdv)
	type exit struct{ rank, code int }
	cmds := make([]*exec.Cmd, g.P)
	exits := make(chan exit, g.P)
	for r := range cmds {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-rank="+strconv.Itoa(r))...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:r] {
				c.Process.Kill()
			}
			return fmt.Errorf("launch rank %d: %w", r, err)
		}
		cmds[r] = cmd
		go func(r int) {
			cmds[r].Wait()
			exits <- exit{r, cmds[r].ProcessState.ExitCode()}
		}(r)
	}

	// Collect every exit. Once one worker fails, its peers unwind via
	// failure detection and exit on their own; the watchdog only guards
	// against a wedged survivor holding the launcher forever.
	codes := make([]int, g.P)
	exited := make([]bool, g.P)
	var watchdog <-chan time.Time
	for done := 0; done < g.P; {
		select {
		case e := <-exits:
			done++
			codes[e.rank], exited[e.rank] = e.code, true
			if e.code != 0 && watchdog == nil {
				watchdog = time.After(2 * time.Minute)
			}
		case <-watchdog:
			for r, c := range cmds {
				if !exited[r] {
					c.Process.Kill()
				}
			}
			watchdog = nil
		}
	}
	if err := distgnn.WorkerExits(codes); err != nil {
		return fmt.Errorf("launch: generation %d: %w", g.N, err)
	}
	return nil
}

// forwardArgs rebuilds the explicitly-set command-line flags, minus the
// ones the launcher owns, so workers re-parse the same job description.
func forwardArgs(skip map[string]bool) []string {
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if skip[f.Name] {
			return
		}
		args = append(args, "-"+f.Name+"="+f.Value.String())
	})
	return args
}

// reserveLoopbackAddr grabs a free loopback port for the rendezvous. The
// port is released before rank 0 rebinds it; the workers' bounded dial
// retry tolerates the tiny window.
func reserveLoopbackAddr() (string, error) {
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}
