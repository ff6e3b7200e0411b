package net

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	gonet "net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"agnn/internal/obs/causal"
)

// ---------------------------------------------------------------- framing

func TestDataFrameRoundTrip(t *testing.T) {
	m := Message{
		Data: []float64{1.5, -2.25, 0, 3e300},
		Hdr:  causal.Header{Src: 3, Seq: 41, Step: 7},
	}
	seq, got, err := readData(encodeData(nil, 12345, m), nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 12345 {
		t.Errorf("wire seq = %d, want 12345", seq)
	}
	if got.Hdr != m.Hdr {
		t.Errorf("header = %+v, want %+v", got.Hdr, m.Hdr)
	}
	if len(got.Data) != len(m.Data) {
		t.Fatalf("payload length %d, want %d", len(got.Data), len(m.Data))
	}
	for i, v := range m.Data {
		if got.Data[i] != v {
			t.Errorf("word %d = %v, want %v", i, got.Data[i], v)
		}
	}
}

// readData reads one data frame through the streaming reader, as a
// connection's read loop does.
func readData(stream []byte, words *recycler[float64]) (uint64, Message, error) {
	f, err := (&frameReader{r: bytes.NewReader(stream), words: words}).next()
	return f.wireSeq, f.msg, err
}

// TestDataFrameRejectsCorruption: a data frame whose header does not add up
// is a corrupt stream and takes no word buffer; a stream cut short inside
// the words is a failed read, and the buffer it took goes back.
func TestDataFrameRejectsCorruption(t *testing.T) {
	frame := encodeData(nil, 7, Message{Data: []float64{1, 2, 3}})
	var words recycler[float64]
	free := make([]float64, 3)
	words.put(free)
	stillFree := func(what string) {
		t.Helper()
		if got := words.get(3); &got[0] != &free[0] {
			t.Errorf("%s: the recycled buffer is not free", what)
		}
		words.put(free)
	}

	if _, _, err := readData(frame[:len(frame)-3], &words); err == nil || errors.As(err, new(corruptFrame)) {
		t.Errorf("truncated frame: %v, want a read error", err)
	}
	stillFree("truncated frame")
	short := append([]byte(nil), frame[:4+dataFrameHeaderLen-2]...)
	binary.LittleEndian.PutUint32(short, dataFrameHeaderLen-2)
	if _, _, err := readData(short, &words); !errors.As(err, new(corruptFrame)) {
		t.Errorf("truncated header: %v, want a corrupt frame", err)
	}
	stillFree("truncated header")
	// Inflate the word count without supplying the words.
	bad := append([]byte(nil), frame...)
	bad[4+dataFrameHeaderLen-4] = 0xff
	if _, _, err := readData(bad, &words); !errors.As(err, new(corruptFrame)) {
		t.Errorf("word-count mismatch: %v, want a corrupt frame", err)
	}
	stillFree("word-count mismatch")
}

// specialWords are the float64 bit patterns a conversion could disturb:
// both zeros, both infinities, quiet, signalling and negative NaNs with
// payloads, subnormals, the extremes.
var specialWords = []uint64{
	0, 1 << 63, 0x7ff0000000000000, 0xfff0000000000000,
	0x7ff8000000000001, 0x7ff0000000000001, 0xfff8dead0000beef,
	1, 0x000fffffffffffff, 0x8000000000000001, 0x7fefffffffffffff, 0x3ff0000000000000,
}

// testWords returns n words: the specials, then a bit-mixing sequence.
func testWords(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		bits := uint64(i+1) * 0x9e3779b97f4a7c15
		if i < len(specialWords) {
			bits = specialWords[i]
		}
		w[i] = math.Float64frombits(bits)
	}
	return w
}

// TestWordCodecMatchesPerWord: the memmove codec writes, and the in-place
// read decodes, exactly the bytes of the per-word little-endian codec, at
// every length around the copy's edges and inside a frame, where the words
// start unaligned.
func TestWordCodecMatchesPerWord(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 10007}
	for _, n := range lengths {
		src := testWords(n)
		got, want := make([]byte, 8*n), make([]byte, 8*n)
		putWords(got, src)
		putWordsLE(want, src)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: putWords differs from the per-word codec", n)
		}
		back, oracle := make([]float64, n), make([]float64, n)
		copy(wordBytes(back), got)
		wordsFromWire(back)
		getWordsLE(oracle, want)
		for i := range src {
			if b := math.Float64bits(src[i]); math.Float64bits(back[i]) != b || math.Float64bits(oracle[i]) != b {
				t.Fatalf("n=%d word %d: %#x decoded as %#x (per-word %#x)", n, i, b,
					math.Float64bits(back[i]), math.Float64bits(oracle[i]))
			}
		}
		frame := encodeData(nil, 5, Message{Data: src})
		if len(frame) != dataFrameLen(n) || !bytes.Equal(frame[4+dataFrameHeaderLen:], want) {
			t.Fatalf("n=%d: frame payload differs from the per-word codec", n)
		}
		var words recycler[float64]
		words.put(make([]float64, n))
		if _, m, err := readData(frame, &words); err != nil || !bytes.Equal(wordBytes(m.Data), wordBytes(back)) {
			t.Fatalf("n=%d: frame does not decode to its words (err %v)", n, err)
		}
	}
}

// TestRecyclerExactCapacity: a buffer comes back only for its own length,
// and the free list stops growing at recycleKeep, dropping the oldest.
func TestRecyclerExactCapacity(t *testing.T) {
	var r recycler[float64]
	a, b := r.get(8), r.get(16)
	r.put(a)
	r.put(b)
	if got := r.get(8); &got[0] != &a[0] {
		t.Error("an 8-word get did not reuse the 8-word buffer")
	}
	if got := r.get(12); &got[0] == &b[0] || len(got) != 12 {
		t.Error("a 12-word get took the 16-word buffer")
	}
	if r.get(0) != nil {
		t.Error("a 0-word get returned a buffer")
	}
	first := make([]float64, 1)
	r.put(first)
	for i := 0; i < recycleKeep; i++ {
		r.put(make([]float64, 2))
	}
	if len(r.free) != recycleKeep {
		t.Fatalf("free list holds %d buffers, want %d", len(r.free), recycleKeep)
	}
	if got := r.get(1); &got[0] == &first[0] {
		t.Error("the oldest buffer survived the bound")
	}
}

func TestControlFrameRoundTrips(t *testing.T) {
	rank, addr, err := decodeHello(encodeHello(3, "127.0.0.1:9999")[4:])
	if err != nil || rank != 3 || addr != "127.0.0.1:9999" {
		t.Errorf("hello round trip: rank=%d addr=%q err=%v", rank, addr, err)
	}
	addrs, err := decodeAddrs(encodeAddrs([]string{"a:1", "b:2", "c:3"})[4:])
	if err != nil || len(addrs) != 3 || addrs[1] != "b:2" {
		t.Errorf("addrs round trip: %v err=%v", addrs, err)
	}
	frank, cause, err := decodeFail(encodeFail(2, "boom")[4:])
	if err != nil || frank != 2 || cause != "boom" {
		t.Errorf("fail round trip: rank=%d cause=%q err=%v", frank, cause, err)
	}
	brank, err := decodeBye(encodeBye(1)[4:])
	if err != nil || brank != 1 {
		t.Errorf("bye round trip: rank=%d err=%v", brank, err)
	}
}

// ---------------------------------------------------------------- chan world

func TestChanWorldSendRecv(t *testing.T) {
	w, err := NewChanWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.Endpoint(0), w.Endpoint(1)
	want := Message{Data: []float64{42}, Hdr: causal.Header{Src: 0, Seq: 1}}
	if err := a.Send(1, want); err != nil {
		t.Fatal(err)
	}
	got := <-b.Inbox(0)
	if got.Data[0] != 42 || got.Hdr.Src != 0 {
		t.Errorf("got %+v", got)
	}

	// Abort poisons the world: subsequent sends fail with ErrWorldDown
	// once mailboxes fill (the poison path races a buffered send, so fill
	// the box first).
	a.Abort(0, errors.New("test"))
	for i := 0; ; i++ {
		if err := b.Send(0, Message{Data: []float64{1}}); err != nil {
			if !errors.Is(err, ErrWorldDown) {
				t.Fatalf("got %v, want ErrWorldDown", err)
			}
			break
		}
		if i > DefaultMailboxCap {
			t.Fatal("send never failed after Abort")
		}
	}
}

// ---------------------------------------------------------------- tcp

// reservePort grabs an ephemeral loopback port for a rendezvous address.
// There is a tiny window where another process could claim it; fine for
// tests.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func fastCfg(rank, size int, rendezvous string) TCPConfig {
	return TCPConfig{
		Rank: rank, Size: size, Rendezvous: rendezvous,
		DialBackoff:      2 * time.Millisecond,
		HeartbeatEvery:   10 * time.Millisecond,
		PeerTimeout:      300 * time.Millisecond,
		BootstrapTimeout: 10 * time.Second,
	}
}

// dialWorld brings up a full in-test world of TCP endpoints (one per rank,
// all in this process over loopback).
func dialWorld(t *testing.T, size int, mutate func(cfg *TCPConfig)) []*TCPEndpoint {
	t.Helper()
	rdv := reservePort(t)
	eps := make([]*TCPEndpoint, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cfg := fastCfg(r, size, rdv)
			if mutate != nil {
				mutate(&cfg)
			}
			eps[r], errs[r] = DialTCP(cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	})
	return eps
}

func TestTCPAllPairsDelivery(t *testing.T) {
	const p = 3
	eps := dialWorld(t, p, nil)
	for from := 0; from < p; from++ {
		for to := 0; to < p; to++ {
			m := Message{Data: []float64{float64(100*from + to)},
				Hdr: causal.Header{Src: int32(from), Seq: uint64(to)}}
			if err := eps[from].Send(to, m); err != nil {
				t.Fatalf("send %d→%d: %v", from, to, err)
			}
		}
	}
	for to := 0; to < p; to++ {
		for from := 0; from < p; from++ {
			select {
			case m := <-eps[to].Inbox(from):
				if want := float64(100*from + to); m.Data[0] != want {
					t.Errorf("rank %d from %d: got %v, want %v", to, from, m.Data[0], want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("rank %d never heard from rank %d", to, from)
			}
		}
	}
}

func TestTCPOrderedDelivery(t *testing.T) {
	eps := dialWorld(t, 2, nil)
	const n = 200
	for i := 0; i < n; i++ {
		if err := eps[0].Send(1, Message{Data: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case m := <-eps[1].Inbox(0):
			if m.Data[0] != float64(i) {
				t.Fatalf("message %d arrived out of order (payload %v)", i, m.Data[0])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", i)
		}
	}
}

// TestTCPLateRendezvous: peers dialing before rank 0 listens retry with
// backoff instead of failing, so process start order does not matter.
func TestTCPLateRendezvous(t *testing.T) {
	rdv := reservePort(t)
	var ep1 *TCPEndpoint
	var err1 error
	done := make(chan struct{})
	go func() {
		defer close(done)
		ep1, err1 = DialTCP(fastCfg(1, 2, rdv))
	}()
	time.Sleep(150 * time.Millisecond) // let rank 1 burn a few dial attempts
	ep0, err := DialTCP(fastCfg(0, 2, rdv))
	if err != nil {
		t.Fatal(err)
	}
	defer ep0.Close()
	<-done
	if err1 != nil {
		t.Fatal(err1)
	}
	defer ep1.Close()
	if ep1.WireStats().DialRetries == 0 {
		t.Error("expected at least one recorded dial retry")
	}
	if err := ep1.Send(0, Message{Data: []float64{7}}); err != nil {
		t.Fatal(err)
	}
	m := <-ep0.Inbox(1)
	if m.Data[0] != 7 {
		t.Errorf("got %v", m.Data[0])
	}
}

// TestTCPConnDropResend: an injected connection drop before a data write
// forces the redial+resend path; the message still arrives exactly once.
func TestTCPConnDropResend(t *testing.T) {
	var drops atomic.Int64
	eps := dialWorld(t, 2, func(cfg *TCPConfig) {
		if cfg.Rank == 0 {
			cfg.OnWire = func(attempt int) (bool, time.Duration) {
				// Drop the first write attempt of the first two frames.
				if attempt == 1 && drops.Add(1) <= 2 {
					return true, 0
				}
				return false, 0
			}
		}
	})
	for i := 0; i < 5; i++ {
		if err := eps[0].Send(1, Message{Data: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		select {
		case m := <-eps[1].Inbox(0):
			if m.Data[0] != float64(i) {
				t.Fatalf("message %d: got payload %v (duplicate or reorder)", i, m.Data[0])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived after drop", i)
		}
	}
	select {
	case m := <-eps[1].Inbox(0):
		t.Fatalf("unexpected extra message %v (resend duplicated)", m.Data)
	case <-time.After(50 * time.Millisecond):
	}
	if eps[0].WireStats().Reconnects == 0 {
		t.Error("expected at least one reconnect")
	}
}

// TestTCPConnDropBidirectionalNoLoss (regression): a connection drop
// initiated by ONE side also discards the OTHER side's in-flight frames —
// frames whose Write already succeeded, so that sender has no failure to
// react to. Only the ACK-pruned replay queue replayed on reconnect recovers
// them; before it existed this test starved on the reverse direction. Both
// ranks stream concurrently while rank 0 keeps dropping its connection
// mid-stream — from the first frame, and after ACKs have already popped and
// recycled part of both replay queues, so the frames of the later stream
// are written into recycled buffers while a replay may still need the
// frames behind them.
func TestTCPConnDropBidirectionalNoLoss(t *testing.T) {
	for _, tc := range []struct {
		name  string
		clean int // messages each way before the first drop
	}{{"from-start", 0}, {"after-acks-recycled", 100}} {
		t.Run(tc.name, func(t *testing.T) { connDropNoLoss(t, tc.clean) })
	}
}

func connDropNoLoss(t *testing.T, clean int) {
	const msgs = 200
	var writes atomic.Int64
	var dropping atomic.Bool
	dropping.Store(clean == 0)
	eps := dialWorld(t, 2, func(cfg *TCPConfig) {
		if cfg.Rank == 0 {
			cfg.OnWire = func(attempt int) (bool, time.Duration) {
				// Drop the first attempt of every 20th frame: repeated
				// mid-stream connection loss under full-duplex traffic.
				if dropping.Load() && attempt == 1 && writes.Add(1)%20 == 0 {
					return true, 0
				}
				return false, 0
			}
		}
	})
	stream := func(lo, hi int) {
		var wg sync.WaitGroup
		sendErrs := make([]error, 2)
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					if err := eps[r].Send(1-r, Message{Data: []float64{float64(i)}}); err != nil {
						sendErrs[r] = err
						return
					}
				}
			}(r)
		}
		for r := 0; r < 2; r++ {
			for i := lo; i < hi; i++ {
				select {
				case m := <-eps[r].Inbox(1 - r):
					if m.Data[0] != float64(i) {
						t.Fatalf("rank %d message %d: got payload %v (lost, duplicated, or reordered)", r, i, m.Data[0])
					}
					eps[r].Recycle(m.Data)
				case <-time.After(10 * time.Second):
					t.Fatalf("rank %d message %d never arrived: in-flight frame lost across reconnect", r, i)
				}
			}
		}
		wg.Wait()
		for r, err := range sendErrs {
			if err != nil {
				t.Fatalf("rank %d send: %v", r, err)
			}
		}
	}
	stream(0, clean)
	if clean > 0 {
		// Wait until ACKs have recycled frames of both replay queues.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if recycledFrames(eps[0]) > 0 && recycledFrames(eps[1]) > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no ACK recycled a frame")
			}
		}
		dropping.Store(true)
	}
	stream(clean, msgs)
	if eps[0].WireStats().Reconnects == 0 {
		t.Error("expected at least one reconnect")
	}
}

// recycledFrames is the number of frame buffers waiting for reuse.
func recycledFrames(e *TCPEndpoint) int {
	e.frames.mu.Lock()
	defer e.frames.mu.Unlock()
	return len(e.frames.free)
}

// TestTCPAckBeyondWindowIsCorrupt (regression): an ACK naming frames this
// side never wrote is a corrupt or stale stream. The peer is declared
// failed, as for a bad data frame, and the replay queue keeps every frame —
// before, it emptied the queue, so the next reconnect had nothing to replay
// and the receiver stalled until its timeout.
func TestTCPAckBeyondWindowIsCorrupt(t *testing.T) {
	eps := dialWorld(t, 2, func(cfg *TCPConfig) {
		cfg.HeartbeatEvery = time.Hour // no real ACK prunes the queue
		cfg.PeerTimeout = time.Hour
	})
	failed := make(chan error, 1)
	eps[0].SetFailureHandler(func(rank int, cause error) {
		if rank == 1 {
			failed <- cause
		}
	})
	const sent = 3
	for i := 0; i < sent; i++ {
		if err := eps[0].Send(1, Message{Data: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eps[1].writeControl(eps[1].peers[0], encodeAck(1<<40)); err != nil {
		t.Fatal(err)
	}
	select {
	case cause := <-failed:
		if !strings.Contains(cause.Error(), "corrupt stream from rank 1") {
			t.Errorf("failure cause %q does not name the corrupt stream", cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an ACK beyond the send window was accepted")
	}
	p := eps[0].peers[1]
	p.mu.Lock()
	n := len(p.unacked)
	p.mu.Unlock()
	if n != sent {
		t.Errorf("replay queue holds %d frames after the refused ACK, want %d", n, sent)
	}
}

// TestTCPReplayQueueBoundedByPromptAcks: with heartbeats an hour apart, the
// receiver's prompt ACKs alone keep the sender's replay queue at most
// ackEveryBytes plus one frame once the receiver has drained the stream;
// the beacon's ACK alone would keep all 16 MiB for the hour.
func TestTCPReplayQueueBoundedByPromptAcks(t *testing.T) {
	eps := dialWorld(t, 2, func(cfg *TCPConfig) {
		cfg.HeartbeatEvery = time.Hour // no beacon ACKs anything
		cfg.PeerTimeout = time.Hour
	})
	const frames, words = 64, 256 << 10 / 8
	data := testWords(words)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < frames; i++ {
			if err := eps[0].Send(1, Message{Data: data}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < frames; i++ {
		select {
		case m := <-eps[1].Inbox(0):
			eps[1].Recycle(m.Data)
		case <-time.After(10 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	bound := ackEveryBytes + dataFrameLen(words)
	unacked := func() (n int) {
		p := eps[0].peers[1]
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, f := range p.unacked {
			n += len(f.frame)
		}
		return n
	}
	for deadline := time.Now().Add(5 * time.Second); unacked() > bound; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("replay queue holds %d bytes after the receiver drained %d frames, want at most %d",
				unacked(), frames, bound)
		}
	}
}

// TestAckFrameRoundTrip: the cumulative-ACK control frame survives its
// encode/decode cycle and rejects wrong sizes.
func TestAckFrameRoundTrip(t *testing.T) {
	frame := encodeAck(123456789)
	upto, err := decodeAck(frame[4:])
	if err != nil || upto != 123456789 {
		t.Fatalf("ack round trip: upto=%d err=%v", upto, err)
	}
	if _, err := decodeAck(frame[4 : len(frame)-1]); err == nil {
		t.Error("truncated ack accepted")
	}
}

// TestTCPCrashDetection: a peer vanishing without a BYE is declared failed
// within the grace window and the failure handler names it.
func TestTCPCrashDetection(t *testing.T) {
	eps := dialWorld(t, 2, nil)
	failed := make(chan int, 1)
	eps[0].SetFailureHandler(func(rank int, cause error) {
		select {
		case failed <- rank:
		default:
		}
	})
	eps[1].Close() // abrupt death: no Goodbye
	select {
	case r := <-failed:
		if r != 1 {
			t.Errorf("handler named rank %d, want 1", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peer death never detected")
	}
}

// TestTCPGoodbyeIsBenign: a clean Goodbye+Close must not be reported as a
// failure.
func TestTCPGoodbyeIsBenign(t *testing.T) {
	eps := dialWorld(t, 2, nil)
	var failures atomic.Int64
	eps[0].SetFailureHandler(func(rank int, cause error) { failures.Add(1) })
	eps[1].Goodbye()
	time.Sleep(50 * time.Millisecond) // let the BYE land before the teardown
	eps[1].Close()
	time.Sleep(2 * fastCfg(0, 2, "").PeerTimeout)
	if n := failures.Load(); n != 0 {
		t.Errorf("%d failure reports after a clean goodbye", n)
	}
}

// TestTCPAbortRelaysFailedRank: Abort names the originally failed rank, so
// a relayed FAIL frame blames the right peer, not the relay, and reports
// the failure once even when the relay's cause is its own report of it.
func TestTCPAbortRelaysFailedRank(t *testing.T) {
	eps := dialWorld(t, 3, nil)
	type failure struct {
		rank  int
		cause error
	}
	failed := make(chan failure, 1)
	eps[0].SetFailureHandler(func(rank int, cause error) {
		select {
		case failed <- failure{rank, cause}:
		default:
		}
	})
	// Rank 1 relays that rank 2 is down, as rank 2's FAIL frame told it.
	eps[1].Abort(2, fmt.Errorf("net: rank 2 reported failed: simulated crash of rank 2"))
	select {
	case f := <-failed:
		if f.rank != 2 {
			t.Errorf("FAIL frame named rank %d, want 2", f.rank)
		}
		if want := "net: rank 2 reported failed: simulated crash of rank 2"; f.cause.Error() != want {
			t.Errorf("relayed failure reads %q, want %q", f.cause, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FAIL frame never arrived")
	}
	if err := eps[1].Send(0, Message{Data: []float64{1}}); !errors.Is(err, ErrWorldDown) {
		t.Errorf("send after Abort: %v, want ErrWorldDown", err)
	}
}

func TestTCPSingleRankWorld(t *testing.T) {
	ep, err := DialTCP(TCPConfig{Rank: 0, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Send(0, Message{Data: []float64{9}}); err != nil {
		t.Fatal(err)
	}
	m := <-ep.Inbox(0)
	if m.Data[0] != 9 {
		t.Errorf("got %v", m.Data[0])
	}
}

func TestDialTCPValidation(t *testing.T) {
	if _, err := DialTCP(TCPConfig{Rank: 2, Size: 2}); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := DialTCP(TCPConfig{Rank: 0, Size: 2}); err == nil ||
		!strings.Contains(err.Error(), "rendezvous") {
		t.Errorf("missing rendezvous accepted (err=%v)", err)
	}
}

// FuzzDecodeFrames: a frame payload is bytes from a peer. Whatever they are,
// the streaming reader, fed them behind their length prefix, and every
// control decoder return a value or an error — no panic, no allocation
// sized by a count the payload's own length does not back — and a data
// frame the reader accepts re-encodes to the same bytes. Seeds: the frames
// the round-trip tests above encode, whole and cut short.
func FuzzDecodeFrames(f *testing.F) {
	for _, frame := range [][]byte{
		encodeData(nil, 12345, Message{Data: []float64{1.5, -2.25, 0, 3e300}, Hdr: causal.Header{Src: 3, Seq: 41, Step: 7}}),
		encodeData(nil, 0, Message{}),
		encodeHello(3, "127.0.0.1:9999"),
		encodeAddrs([]string{"a:1", "b:2", "c:3"}),
		encodeFail(2, "boom"),
		encodeBye(1),
		encodeAck(77),
		encodeHeartbeat(),
	} {
		f.Add(frame[4:]) // the payload behind the length prefix
		f.Add(frame[4 : 4+(len(frame)-4)/2])
	}
	f.Add([]byte{frameAddrs, 0xff, 0xff, 0xff, 0xff})
	special := encodeData(nil, 9, Message{Data: testWords(len(specialWords)), Hdr: causal.Header{Src: 1, Seq: 2}})[4:]
	f.Add(special)
	short := append([]byte(nil), special...)
	short[dataFrameHeaderLen-4]-- // one word fewer declared than carried
	f.Add(short)
	const dirt = 0xdeadbeefdeadbeef
	f.Fuzz(func(t *testing.T, p []byte) {
		// Read into a dirty recycled buffer of the length the payload would
		// fill: a rejected frame must leave it untouched and still free, an
		// accepted one must return its own words and none of the buffer's
		// previous ones.
		var words recycler[float64]
		var dirty []float64
		if n := (len(p) - dataFrameHeaderLen) / 8; n > 0 && n <= 1<<16 {
			dirty = make([]float64, n)
			for i := range dirty {
				dirty[i] = math.Float64frombits(dirt)
			}
			words.put(dirty)
		}
		stream := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
		stream = append(stream, p...)
		fr := frameReader{r: bytes.NewReader(stream), words: &words}
		got, err := fr.next()
		switch {
		case err == nil && got.kind == frameData:
			m := got.msg
			want := make([]float64, len(m.Data))
			getWordsLE(want, p[dataFrameHeaderLen:])
			if !bytes.Equal(wordBytes(m.Data), wordBytes(want)) {
				t.Fatalf("read words differ from the per-word codec")
			}
			if again := encodeData(nil, got.wireSeq, m)[4:]; !bytes.Equal(again, p) {
				t.Fatalf("data frame does not survive read → encode")
			}
			// The same frame cut short inside its words is a failed read
			// that hands the buffer it took back.
			if len(m.Data) > 0 {
				words.put(m.Data)
				cut := frameReader{r: bytes.NewReader(stream[:len(stream)-1]), words: &words}
				if _, err := cut.next(); err == nil {
					t.Fatalf("a data frame cut short was accepted")
				}
				if back := words.get(len(m.Data)); &back[0] != &m.Data[0] {
					t.Fatalf("a data frame cut short kept its word buffer")
				}
			}
		case err == nil:
			if got.size != len(stream) || !bytes.Equal(got.payload, p) {
				t.Fatalf("control frame read as %d bytes %x, want %x", got.size, got.payload, p)
			}
		case dirty != nil:
			for i, v := range dirty {
				if math.Float64bits(v) != dirt {
					t.Fatalf("rejected frame wrote word %d of the recycled buffer", i)
				}
			}
			if got := words.get(len(dirty)); &got[0] != &dirty[0] {
				t.Fatalf("rejected frame took the recycled buffer")
			}
		}
		_, _, _ = decodeHello(p)
		if addrs, err := decodeAddrs(p); err == nil && len(addrs) > len(p) {
			t.Fatalf("%d addresses out of %d bytes", len(addrs), len(p))
		}
		_, _, _ = decodeFail(p)
		_, _ = decodeBye(p)
		_, _ = decodeAck(p)
	})
}
