package net_test

import (
	gonet "net"
	"sync"
	"testing"
	"time"

	"agnn/internal/dist"
	distnet "agnn/internal/dist/net"
)

// TestKeptPayloadsLeavePool: what Gatherv and Alltoallv hand their caller
// are received payloads the caller keeps, so they leave the wire pool's
// count. Repeated over a channel world and a loopback TCP one, the
// collectives leave the pool's out bytes where they started once the world
// has closed.
func TestKeptPayloadsLeavePool(t *testing.T) {
	const p, rounds = 3, 10
	body := func(c *dist.Comm) error {
		for i := 0; i < rounds; i++ {
			c.Gatherv(make([]float64, 1000+c.Rank()), i%p)
			out := make([][]float64, p)
			for r := range out {
				out[r] = make([]float64, 100*(r+1)+i)
			}
			c.Alltoallv(out)
		}
		return nil
	}
	settle := func(what string, before int) {
		t.Helper()
		// A TCP read loop hands back the buffer of a frame the close cut
		// short once its read fails.
		for deadline := time.Now().Add(5 * time.Second); distnet.WireOut() != before; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the wire pool counts %d B out after the world closed, %d before", what, distnet.WireOut(), before)
			}
		}
	}

	before := distnet.WireOut()
	if _, errs, err := dist.TryRun(p, dist.Options{}, body); err != nil {
		t.Fatalf("channels: %v %v", err, errs)
	}
	settle("channels", before)

	before = distnet.WireOut()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rdv := ln.Addr().String()
	ln.Close()
	eps, errs := make([]*distnet.TCPEndpoint, p), make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			eps[r], errs[r] = distnet.DialTCP(distnet.TCPConfig{Rank: r, Size: p, Rendezvous: rdv,
				DialBackoff: 2 * time.Millisecond, HeartbeatEvery: 10 * time.Millisecond,
				PeerTimeout: 2 * time.Second, BootstrapTimeout: 10 * time.Second})
			if errs[r] != nil {
				return
			}
			w, err := dist.NewNetWorld(eps[r], dist.Options{RecvTimeout: 20 * time.Second})
			if err == nil {
				_, err = w.TryRunLocal(body)
			}
			errs[r] = err
		}(r)
	}
	wg.Wait()
	for _, ep := range eps {
		if ep != nil {
			ep.Close()
		}
	}
	for r, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", r, err)
		}
	}
	settle("tcp", before)
}
