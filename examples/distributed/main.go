// Distributed execution: run GAT training on the simulated cluster at
// p = 1, 4, 16 ranks, compare the measured per-rank communication volume of
// the global formulation against both the BSP cost model of Section 7 and
// the local-formulation (DistDGL-like) baseline.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"sync"
	"time"

	"agnn/internal/costmodel"
	"agnn/internal/dist"
	"agnn/internal/distgnn"
	"agnn/internal/gnn"
	"agnn/internal/graph"
	"agnn/internal/tensor"
)

func main() {
	const (
		n      = 4096
		k      = 16
		layers = 3
	)
	a := graph.Kronecker(12, 16, 5)
	st := graph.Summarize(a)
	fmt.Printf("graph: n=%d m=%d maxdeg=%d\n", st.N, st.M, st.MaxDeg)
	h := tensor.NewDense(st.N, k)
	for i := range h.Data {
		h.Data[i] = 0.1 * float64(i%17-8)
	}
	labels := make([]int, st.N)
	for i := range labels {
		labels[i] = i % k
	}
	cfg := gnn.Config{Model: gnn.GAT, Layers: layers, InDim: k, HiddenDim: k,
		OutDim: k, Activation: gnn.Tanh(), SelfLoops: true, Seed: 6}

	fmt.Println("\n-- global formulation (2D grid, A-stationary) --")
	fmt.Println("p     time/step   max B/rank   predicted words   modeled net time")
	for _, p := range []int{1, 4, 16} {
		var elapsed time.Duration
		var loss float64
		var mu sync.Mutex
		cs := dist.Run(p, func(c *dist.Comm) {
			e, err := distgnn.NewGlobalEngine(c, a, cfg)
			if err != nil {
				panic(err)
			}
			defer e.Close()
			xd := e.SliceOwnedBlock(h)
			opt := gnn.NewSGD(1e-3, 0)
			c.Barrier()
			t0 := time.Now()
			l := e.TrainStep(xd, labels, nil, opt)
			c.Barrier()
			if c.Rank() == 0 {
				mu.Lock()
				elapsed, loss = time.Since(t0), l
				mu.Unlock()
			}
		})
		m := dist.MaxCounters(cs)
		pred := float64(layers) * costmodel.GlobalVolume(st.N, k, p)
		fmt.Printf("%-4d  %-10s  %-11d  %-16.0f  %.4fms   (loss %.4f)\n",
			p, elapsed.Round(time.Microsecond), m.BytesSent, pred,
			1e3*dist.CrayAries().Time(m), loss)
	}

	fmt.Println("\n-- local formulation baseline (1D + halo exchange), inference --")
	fmt.Println("p     time/pass   max B/rank   halo rows")
	for _, p := range []int{4, 16} {
		var elapsed time.Duration
		var halo int
		var mu sync.Mutex
		cs := dist.Run(p, func(c *dist.Comm) {
			e, err := distgnn.NewLocalEngine(c, a, cfg)
			if err != nil {
				panic(err)
			}
			hOwned := h.SliceRows(e.Lo, e.Hi).Clone()
			c.Barrier()
			t0 := time.Now()
			e.Forward(hOwned)
			c.Barrier()
			if c.Rank() == 0 {
				mu.Lock()
				elapsed, halo = time.Since(t0), e.HaloSize()
				mu.Unlock()
			}
		})
		m := dist.MaxCounters(cs)
		fmt.Printf("%-4d  %-10s  %-11d  %d\n",
			p, elapsed.Round(time.Microsecond), m.BytesSent, halo)
	}
	fmt.Println("\nThe global formulation's per-rank volume shrinks with √p while the")
	fmt.Println("local baseline's halo stays ~n per rank on this heavy-tail graph —")
	fmt.Println("the Section 7 separation for d ∈ ω(√p).")
}
