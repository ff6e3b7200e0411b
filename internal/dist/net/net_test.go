package net

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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
func readData(stream []byte, pool *wordPool) (uint64, Message, error) {
	f, err := (&frameReader{r: bytes.NewReader(stream), pool: pool}).next()
	return f.wireSeq, f.msg, err
}

// TestDataFrameRejectsCorruption: a data frame whose header does not add up
// is a corrupt stream and takes no word buffer; a stream cut short inside
// the words is a failed read, and the buffer it took goes back.
func TestDataFrameRejectsCorruption(t *testing.T) {
	frame := encodeData(nil, 7, Message{Data: []float64{1, 2, 3}})
	var words wordPool
	free := words.payload(3)
	words.put(free)
	stillFree := func(what string) {
		t.Helper()
		if got := words.payload(3); &got[0] != &free[0] {
			t.Errorf("%s: the pooled buffer is not free", what)
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
		var words wordPool
		words.put(words.take(n))
		if _, m, err := readData(frame, &words); err != nil || !bytes.Equal(wordBytes(m.Data), wordBytes(back)) {
			t.Fatalf("n=%d: frame does not decode to its words (err %v)", n, err)
		}
	}
}

// TestWordPool: a buffer comes back only for its own message size; one
// buffer is both that size's received payload and its data frame, whose
// words start on a word of the buffer; a 0-word payload is no buffer, a
// 0-word frame is. Traffic of ever-new sizes keeps the bytes free and out
// within twice the most bytes ever out at once.
func TestWordPool(t *testing.T) {
	var pool wordPool
	a, b := pool.payload(8), pool.payload(16)
	pool.put(a)
	pool.put(b)
	if got := pool.payload(8); &got[0] != &a[0] || len(got) != 8 {
		t.Error("an 8-word payload did not reuse the 8-word buffer")
	}
	if got := pool.payload(12); &got[0] == &b[0] || len(got) != 12 {
		t.Error("a 12-word payload took the 16-word buffer")
	}
	if pool.payload(0) != nil {
		t.Error("a 0-word payload is a buffer")
	}

	for _, n := range []int{0, 1, 7} {
		buf, frame := pool.frame(n)
		if len(frame) != dataFrameLen(n) {
			t.Fatalf("n=%d: frame view of %d bytes, want %d", n, len(frame), dataFrameLen(n))
		}
		m := Message{Data: testWords(n), Hdr: causal.Header{Src: 1, Seq: 2, Step: 3}}
		if !bytes.Equal(encodeData(frame, 9, m), encodeData(nil, 9, m)) {
			t.Fatalf("n=%d: the frame view does not hold the frame", n)
		}
		// The frame is the buffer's bytes [3, 8(n+frameWords)): its words
		// start on word frameWords.
		words := buf[:cap(buf)]
		if cap(buf) != n+frameWords || &frame[0] != &wordBytes(words)[3] || 4+dataFrameHeaderLen != 8*frameWords-3 {
			t.Fatalf("n=%d: the frame's words do not start on word %d of its buffer", n, frameWords)
		}
		pool.put(buf)
		if n == 0 {
			continue
		}
		if got := pool.payload(n); &got[0] != &words[0] || len(got) != n {
			t.Fatalf("n=%d: a payload did not reuse the frame's buffer", n)
		}
		if got, _ := pool.frame(n); &got[0] == &words[0] {
			t.Fatalf("n=%d: a frame took the buffer the payload holds", n)
		}
	}

	var fresh wordPool
	within := func(what string, n int) {
		t.Helper()
		if fresh.freeB+fresh.outB > 2*fresh.peak {
			t.Fatalf("%s %d sizes: %d B free, %d B out, peak %d B out", what, n, fresh.freeB, fresh.outB, fresh.peak)
		}
	}
	for n := 1; n <= 500; n++ {
		fresh.put(fresh.payload(n))
		within("after", n)
	}
	held := fresh.payload(1000)
	for n := 1; n <= 500; n++ {
		fresh.put(fresh.payload(n))
		within("with a large buffer out, after", n)
	}
	fresh.put(held)
	within("after all", 1000)
}

// TestTCPCloseReturnsPool: an endpoint hands what it keeps for its peers —
// the replay queue, the reorder buffer — back to the wire pool when it
// closes. So once every endpoint of a world has closed and every received
// payload has been recycled, nothing the world took from the pool is out,
// dropped connections and resent frames included.
func TestTCPCloseReturnsPool(t *testing.T) {
	out := WireOut
	for _, drop := range []bool{false, true} {
		t.Run(map[bool]string{false: "clean", true: "conn-drop"}[drop], func(t *testing.T) {
			before := out()
			var writes atomic.Int64
			eps := dialWorld(t, 3, func(cfg *TCPConfig) {
				if drop && cfg.Rank == 0 {
					cfg.OnWire = func(attempt int) (bool, time.Duration) {
						return attempt == 1 && writes.Add(1)%7 == 0, 0
					}
				}
			})
			const msgs = 50
			for i := 0; i < msgs; i++ {
				for from := range eps {
					for to := range eps {
						if err := eps[from].Send(to, Message{Data: testWords(i % 9)}); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for to := range eps {
				for from := range eps {
					for i := 0; i < msgs; i++ {
						select {
						case m := <-eps[to].Inbox(from):
							eps[to].Recycle(m.Data)
						case <-time.After(5 * time.Second):
							t.Fatalf("rank %d: message %d from rank %d never arrived", to, i, from)
						}
					}
				}
			}
			if drop && eps[0].WireStats().Reconnects == 0 {
				t.Error("expected at least one reconnect")
			}
			for _, ep := range eps {
				ep.Close()
			}
			// A read loop hands back the buffer of a frame the close cut
			// short once its read fails.
			for deadline := time.Now().Add(5 * time.Second); out() != before; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the wire pool has %d B out after the world closed, want %d", out(), before)
				}
			}
		})
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

// TestTCPPeerListensAfterRendezvous: a rank above 0 opens its listener only
// once its rendezvous connection exists — rank 0 then holds the rendezvous
// port, so the peer's auto-assigned port cannot be it — and closes that
// connection when the listen fails.
func TestTCPPeerListensAfterRendezvous(t *testing.T) {
	rdv, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rdv.Close()
	refused := errors.New("listen refused by the test")
	var accepted gonet.Conn
	defer func(orig func(string, string) (gonet.Listener, error)) { listen = orig }(listen)
	listen = func(string, string) (gonet.Listener, error) {
		// A connection already dialled waits in the accept queue; one not
		// yet dialled never arrives, for the peer is blocked right here.
		rdv.(*gonet.TCPListener).SetDeadline(time.Now().Add(2 * time.Second))
		var err error
		if accepted, err = rdv.Accept(); err != nil {
			t.Errorf("the peer listens before its rendezvous connection exists: %v", err)
		}
		return nil, refused
	}
	if _, err := DialTCP(fastCfg(1, 2, rdv.Addr().String())); !errors.Is(err, refused) {
		t.Fatalf("DialTCP: %v, want the refused listen", err)
	}
	if accepted == nil {
		return
	}
	defer accepted.Close()
	accepted.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := accepted.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("rendezvous connection after the failed listen: read %d bytes, %v; want EOF", n, err)
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
		// Wait until ACKs have handed frames of both replay queues back.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if unackedFrames(eps[0], 1) < clean && unackedFrames(eps[1], 0) < clean {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("no ACK handed a frame back")
			}
		}
		dropping.Store(true)
	}
	stream(clean, msgs)
	if eps[0].WireStats().Reconnects == 0 {
		t.Error("expected at least one reconnect")
	}
}

// unackedFrames is the length of e's replay queue to peer.
func unackedFrames(e *TCPEndpoint, peer int) int {
	p := e.peers[peer]
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.unacked)
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
	if n := unackedFrames(eps[0], 1); n != sent {
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
		// Read into a dirty pooled buffer of the length the payload would
		// fill: a rejected frame must leave it untouched and still free, an
		// accepted one must return its own words and none of the buffer's
		// previous ones.
		var words wordPool
		var dirty []float64
		if n := (len(p) - dataFrameHeaderLen) / 8; n > 0 && n <= 1<<16 {
			dirty = words.payload(n)
			for i := range dirty {
				dirty[i] = math.Float64frombits(dirt)
			}
			words.put(dirty)
		}
		stream := binary.LittleEndian.AppendUint32(nil, uint32(len(p)))
		stream = append(stream, p...)
		fr := frameReader{r: bytes.NewReader(stream), pool: &words}
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
				cut := frameReader{r: bytes.NewReader(stream[:len(stream)-1]), pool: &words}
				if _, err := cut.next(); err == nil {
					t.Fatalf("a data frame cut short was accepted")
				}
				if back := words.payload(len(m.Data)); &back[0] != &m.Data[0] {
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
					t.Fatalf("rejected frame wrote word %d of the pooled buffer", i)
				}
			}
			if got := words.payload(len(dirty)); &got[0] != &dirty[0] {
				t.Fatalf("rejected frame took the pooled buffer")
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
