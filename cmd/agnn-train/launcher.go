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
	"errors"
	"flag"
	"fmt"
	gonet "net"
	"os"
	"os/exec"
	"strconv"
	"time"

	"agnn/internal/costmodel"
	"agnn/internal/dist/faults"
	distnet "agnn/internal/dist/net"
	"agnn/internal/distgnn"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/obs/metrics"
)

// workerOpts carries the distributed-mode flag values into worker and
// launcher mode without threading a dozen positional parameters around.
type workerOpts struct {
	rank, world int
	rendezvous  string
	epochs      int
	lr          float64
	faultSpec   string
	faultSeed   int64
	ckptDir     string
	ckptEvery   int
	resume      bool
	elastic     bool
	minRanks    int
	maxRestarts int
	stragFactor float64
	stragFloor  time.Duration
	savePath    string
}

// exitNonFinite is a worker's exit status when the loss stopped being
// finite: every rank stops at the same epoch, and a relaunch would train
// into the same loss again, so the launcher gives up instead.
const exitNonFinite = 3

// runWorker executes one rank of a multi-process world and exits nonzero
// on failure, which is the signal the launcher supervises on.
func runWorker(m *gnn.Model, ds *graph.Dataset, cfg gnn.Config, o workerOpts) {
	if o.world < 1 {
		fatal(fmt.Errorf("-transport tcp needs -world >= 1 (or -p)"))
	}
	if o.rank < 0 || o.rank >= o.world {
		fatal(fmt.Errorf("-rank %d outside world [0, %d)", o.rank, o.world))
	}
	if o.rendezvous == "" {
		fatal(fmt.Errorf("-transport tcp needs -rendezvous (rank 0's listen address)"))
	}

	var inj *faults.Injector
	tcfg := distnet.TCPConfig{Rank: o.rank, Size: o.world, Rendezvous: o.rendezvous}
	if o.faultSpec != "" {
		fs, err := faults.Parse(o.faultSpec)
		fatal(err)
		inj = faults.New(fs, o.faultSeed, o.world)
		if fs.HasWire() {
			rank := o.rank
			tcfg.OnWire = func(attempt int) (bool, time.Duration) {
				act := inj.OnWire(rank, attempt)
				return act.Drop, act.Delay
			}
		}
		if o.rank == 0 {
			fmt.Printf("fault injection: %s (seed %d)\n", fs, o.faultSeed)
		}
	}

	ep, err := distnet.DialTCP(tcfg)
	fatal(err)
	defer ep.Close()

	spec := distgnn.TrainSpec{
		A:      ds.Adj,
		X:      ds.Features,
		Labels: ds.Labels,
		Mask:   ds.TrainMask,
		Cfg:    cfg,
		Epochs: o.epochs,
		NewOpt: func() gnn.StatefulOptimizer { return gnn.NewAdam(o.lr) },

		CheckpointDir:   o.ckptDir,
		CheckpointEvery: o.ckptEvery,
		Resume:          o.resume,
		Faults:          inj,
		StragglerFactor: o.stragFactor,
		StragglerFloor:  o.stragFloor,
	}
	if o.rank == 0 {
		spec.OnEpoch = func(epoch int, loss float64) {
			e := epoch + 1
			metrics.TrainEpoch.Set(float64(e))
			metrics.TrainLoss.Set(loss)
			if e%10 == 0 || e == 1 || e == o.epochs {
				fmt.Printf("epoch %3d  loss %.4f\n", e, loss)
			}
		}
	}

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
		os.Exit(exitNonFinite)
	}
	fatal(werr)

	if o.rank == 0 && res != nil {
		if res.StartEpoch > 0 {
			fmt.Printf("resumed from checkpoint at epoch %d\n", res.StartEpoch)
		}
		if res.Params != nil {
			copyParamsInto(m, res.Params)
			out := m.Forward(ds.Features, false)
			fmt.Printf("world=%d final  train-acc %.3f  test-acc %.3f\n",
				o.world, gnn.Accuracy(out, ds.Labels, ds.TrainMask),
				gnn.Accuracy(out, ds.Labels, ds.TestMask()))
			if o.savePath != "" {
				fatal(gnn.SaveWeightsFile(o.savePath, m))
				fmt.Printf("saved weights to %s\n", o.savePath)
			}
		}
	}
}

// launchWorkers spawns o.world worker processes of this binary over
// loopback TCP and supervises them. On a worker failure every survivor
// unwinds (ErrRankFailed) and exits nonzero; the launcher then relaunches
// the job — one rank fewer when -elastic is set and the floor allows —
// with -resume so the new generation restarts from the last durable
// checkpoint. Faults are injected into the first generation only: the
// relaunched world must not replay the crash.
func launchWorkers(o workerOpts) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	p := o.world
	if p < 1 {
		return fmt.Errorf("-launch needs -world >= 1 (or -p)")
	}
	minRanks := o.minRanks
	if minRanks < 1 {
		minRanks = 1
	}
	maxRestarts := o.maxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 3
	}

	base := forwardArgs(map[string]bool{
		"launch": true, "transport": true, "rank": true, "world": true,
		"rendezvous": true, "faults": true, "resume": true, "p": true,
	})
	for gen := 0; ; gen++ {
		rdv := o.rendezvous
		if rdv == "" || gen > 0 {
			if rdv, err = reserveLoopbackAddr(); err != nil {
				return err
			}
		}
		args := append([]string(nil), base...)
		args = append(args, "-transport=tcp", "-world="+strconv.Itoa(p), "-rendezvous="+rdv)
		if gen == 0 && o.faultSpec != "" {
			args = append(args, "-faults="+o.faultSpec)
		}
		if o.resume || gen > 0 {
			args = append(args, "-resume=true")
		}

		fmt.Printf("launch: generation %d, %d processes, rendezvous %s\n", gen, p, rdv)
		cmds := make([]*exec.Cmd, p)
		exits := make(chan error, p)
		for r := 0; r < p; r++ {
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
			go func(c *exec.Cmd) { exits <- c.Wait() }(cmd)
		}

		// Collect every exit. Once one worker fails, its peers unwind via
		// failure detection and exit on their own; the watchdog only guards
		// against a wedged survivor holding the launcher forever.
		failures, nonFinite := 0, false
		var watchdog <-chan time.Time
		for done := 0; done < p; {
			select {
			case err := <-exits:
				done++
				if err != nil {
					failures++
					var ee *exec.ExitError
					nonFinite = nonFinite || errors.As(err, &ee) && ee.ExitCode() == exitNonFinite
					if watchdog == nil {
						watchdog = time.After(2 * time.Minute)
					}
				}
			case <-watchdog:
				for _, c := range cmds {
					if c.ProcessState == nil {
						c.Process.Kill()
					}
				}
				watchdog = nil
			}
		}
		if failures == 0 {
			if gen > 0 {
				fmt.Printf("launch: recovered after %d relaunch(es) at world=%d\n", gen, p)
			}
			return nil
		}
		if nonFinite {
			return fmt.Errorf("launch: the loss stopped being finite in generation %d; a relaunch would train into it again", gen)
		}
		if gen+1 > maxRestarts {
			return fmt.Errorf("launch: %d worker(s) failed in generation %d; restart budget (%d) exhausted",
				failures, gen, maxRestarts)
		}
		if o.elastic && p > minRanks {
			p--
		}
		fmt.Printf("launch: %d worker(s) failed; relaunching at world=%d from checkpoint\n", failures, p)
	}
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

// copyParamsInto copies the engine's final replicated weights into the
// single-node model for evaluation and -save.
func copyParamsInto(m *gnn.Model, params []*gnn.Param) {
	mp := m.Params()
	if len(mp) != len(params) {
		fatal(fmt.Errorf("parameter inventory mismatch: model %d, engine %d", len(mp), len(params)))
	}
	for i, p := range params {
		if mp[i].Name != p.Name || mp[i].Value.Rows != p.Value.Rows || mp[i].Value.Cols != p.Value.Cols {
			fatal(fmt.Errorf("parameter %d mismatch: model %q %dx%d, engine %q %dx%d",
				i, mp[i].Name, mp[i].Value.Rows, mp[i].Value.Cols, p.Name, p.Value.Rows, p.Value.Cols))
		}
		copy(mp[i].Value.Data, p.Value.Data)
	}
}
