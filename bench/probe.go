package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The host probe measures the machine's ceilings in the same run as the
// layers, so every *_roof_frac divides by what this box could do today:
// memory bandwidth (stream triad over arrays that do not fit in cache),
// scalar fused-multiply-add rate, and loopback TCP latency and bandwidth.
// It uses plain goroutines, one per CPU, not the program's worker pool.

type hostCeilings struct {
	streamGBs   float64 // triad, all CPUs
	fmaGflops   float64 // scalar FMA, all CPUs
	loopRTTus   float64 // 64-byte round trip
	loopGBs     float64 // 4 MiB one way
	llcBytes    int64   // largest cache found
	arrayBytes  int64   // size of each triad array
	cacheLevels string  // "L1 48K, L2 2048K, L3 266240K"
}

// cacheSizes reads the cache hierarchy of CPU 0 from sysfs. On a box
// without it (or not Linux) it assumes a 32 MiB last-level cache.
func cacheSizes() (llc int64, levels string) {
	var parts []string
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		size, err := os.ReadFile(dir + "size")
		if err != nil {
			break
		}
		typ, _ := os.ReadFile(dir + "type")
		if strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		level, _ := os.ReadFile(dir + "level")
		s := strings.TrimSpace(string(size))
		parts = append(parts, "L"+strings.TrimSpace(string(level))+" "+s)
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > llc {
			llc = n * mult
		}
	}
	if llc == 0 {
		return 32 << 20, "unknown (assumed 32M)"
	}
	return llc, strings.Join(parts, ", ")
}

// memAvailable reads MemAvailable from /proc/meminfo, 0 if it cannot.
func memAvailable() int64 {
	b, err := os.ReadFile("/proc/meminfo")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "MemAvailable:" {
			kb, _ := strconv.ParseInt(f[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

// onAllCPUs runs f(cpu, ncpu) on one goroutine per CPU and waits.
func onAllCPUs(f func(cpu, ncpu int)) {
	n := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f(c, n)
		}(c)
	}
	wg.Wait()
}

// probeStream times a[i] = b[i] + s·c[i] over arrays of four times the
// last-level cache each (less only if memory is short; both sizes are
// printed). Bytes are computed: three arrays of 8-byte words per pass,
// write-allocate traffic not counted. The arrays are written once before
// timing, so no pass pays for first-touch page faults. Best of three passes.
func probeStream(h *hostCeilings, small bool) {
	h.llcBytes, h.cacheLevels = cacheSizes()
	h.arrayBytes = 4 * h.llcBytes
	if avail := memAvailable(); avail > 0 && h.arrayBytes > avail/12 {
		h.arrayBytes = avail / 12
	}
	if small {
		h.arrayBytes = 4 << 20
	}
	n := int(h.arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	onAllCPUs(func(cpu, ncpu int) {
		for i := cpu * n / ncpu; i < (cpu+1)*n/ncpu; i++ {
			a[i], b[i], c[i] = 0, 1, 2
		}
	})
	best := math.Inf(1)
	for pass := 0; pass < 3; pass++ {
		t0 := time.Now()
		onAllCPUs(func(cpu, ncpu int) {
			lo, hi := cpu*n/ncpu, (cpu+1)*n/ncpu
			x, y, z := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range x {
				x[i] = y[i] + 3*z[i]
			}
		})
		best = math.Min(best, time.Since(t0).Seconds())
	}
	if a[n/2] != 7 {
		panic("stream triad produced a wrong value")
	}
	h.streamGBs = 3 * 8 * float64(n) / best / 1e9
}

var fmaSink float64

// probeFMA times eight independent scalar fused-multiply-add chains per
// CPU: the rate a scalar inner loop cannot exceed.
func probeFMA(h *hostCeilings, iters int) {
	sinks := make([]float64, runtime.GOMAXPROCS(0))
	t0 := time.Now()
	onAllCPUs(func(cpu, _ int) {
		x0, x1, x2, x3, x4, x5, x6, x7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
		const m, a = 0.999999, 1e-9
		for i := 0; i < iters; i++ {
			x0 = math.FMA(x0, m, a)
			x1 = math.FMA(x1, m, a)
			x2 = math.FMA(x2, m, a)
			x3 = math.FMA(x3, m, a)
			x4 = math.FMA(x4, m, a)
			x5 = math.FMA(x5, m, a)
			x6 = math.FMA(x6, m, a)
			x7 = math.FMA(x7, m, a)
		}
		sinks[cpu] = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
	})
	secs := time.Since(t0).Seconds()
	fmaSink = sum(sinks)
	h.fmaGflops = 2 * 8 * float64(iters) * float64(len(sinks)) / secs / 1e9
}

// probeLoopback plays ping-pong over one 127.0.0.1 TCP connection: 64-byte
// messages give the round-trip latency (α), 4 MiB messages the bandwidth
// (β). These are the floor and the roof of the wire transport.
func probeLoopback(h *hostCeilings, smallReps, bigReps int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("loopback probe: %w", err)
	}
	defer ln.Close()
	const big = 4 << 20
	echoed := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, big)
		for _, step := range []struct{ size, reps int }{{64, smallReps}, {big, bigReps}} {
			for i := 0; i < step.reps; i++ {
				if _, err := io.ReadFull(conn, buf[:step.size]); err != nil {
					echoed <- err
					return
				}
				if _, err := conn.Write(buf[:step.size]); err != nil {
					echoed <- err
					return
				}
			}
		}
		echoed <- nil
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return fmt.Errorf("loopback probe: %w", err)
	}
	defer conn.Close()
	buf := make([]byte, big)
	pingPong := func(size, reps int) (float64, error) {
		rtts := make([]float64, reps)
		for i := range rtts {
			t0 := time.Now()
			if _, err := conn.Write(buf[:size]); err != nil {
				return 0, err
			}
			if _, err := io.ReadFull(conn, buf[:size]); err != nil {
				return 0, err
			}
			rtts[i] = time.Since(t0).Seconds()
		}
		return median(rtts), nil
	}
	rtt, err := pingPong(64, smallReps)
	if err != nil {
		return fmt.Errorf("loopback probe: %w", err)
	}
	bigRTT, err := pingPong(big, bigReps)
	if err != nil {
		return fmt.Errorf("loopback probe: %w", err)
	}
	if err := <-echoed; err != nil {
		return fmt.Errorf("loopback probe: echo side: %w", err)
	}
	h.loopRTTus = rtt * 1e6
	h.loopGBs = 2 * big / bigRTT / 1e9
	return nil
}

// probeHost measures all ceilings. small shrinks every probe to smoke
// size, where the numbers only prove the code runs.
func probeHost(small bool) (*hostCeilings, error) {
	h := &hostCeilings{}
	iters, smallReps, bigReps := 50_000_000, 2000, 20
	if small {
		iters, smallReps, bigReps = 1_000_000, 100, 3
	}
	probeStream(h, small)
	probeFMA(h, iters)
	return h, probeLoopback(h, smallReps, bigReps)
}

func (h *hostCeilings) report(r *report) {
	r.put("host.stream_gbs", h.streamGBs, "GB/s")
	r.put("host.fma_gflops", h.fmaGflops, "GFLOP/s")
	r.put("host.loopback_rtt_us", h.loopRTTus, "us")
	r.put("host.loopback_gbs", h.loopGBs, "GB/s")
	r.note("host.caches", h.cacheLevels)
	r.note("host.stream_array_bytes", fmt.Sprint(h.arrayBytes))
	r.note("host.llc_bytes", fmt.Sprint(h.llcBytes))
}
