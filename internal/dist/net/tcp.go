package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	gonet "net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"agnn/internal/obs"
	"agnn/internal/obs/metrics"
)

// TCPConfig describes one rank's place in a multi-process world.
type TCPConfig struct {
	Rank int // this rank, in [0, Size)
	Size int // world size p

	// Rendezvous is rank 0's listen address (host:port for tcp, a socket
	// path for unix). Rank 0 listens there; every other rank dials it.
	Rendezvous string
	// Network is "tcp" (default) or "unix".
	Network string
	// Addr is this rank's own data-listener address. Empty means
	// loopback-auto for tcp ("127.0.0.1:0"); unix ranks > 0 must set it.
	// Rank 0 always listens on Rendezvous.
	Addr string

	DialRetries      int           // bounded dial attempts (default 40)
	DialBackoff      time.Duration // initial backoff, doubles with jitter (default 10ms, cap 1s)
	DialTimeout      time.Duration // per-attempt dial deadline (default 2s)
	WriteTimeout     time.Duration // per-frame write deadline (default 5s)
	HeartbeatEvery   time.Duration // liveness beacon period (default 100ms)
	PeerTimeout      time.Duration // silence/reconnect grace before a peer is declared failed (default 3s)
	BootstrapTimeout time.Duration // full-mesh establishment deadline (default 30s)

	// OnWire, when set, is consulted before every outbound data-frame
	// write: drop closes the connection before writing (forcing the
	// redial+resend path), delay stalls the socket write. attempt is
	// 1-based and increments across resends of one frame, letting the hook
	// bound consecutive drops. It is the hook the wire-level fault
	// injector (internal/dist/faults OnWire) plugs into.
	OnWire func(attempt int) (drop bool, delay time.Duration)
}

func (c *TCPConfig) defaults() {
	if c.Network == "" {
		c.Network = "tcp"
	}
	if c.DialRetries == 0 {
		c.DialRetries = 40
	}
	if c.DialBackoff == 0 {
		c.DialBackoff = 10 * time.Millisecond
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.HeartbeatEvery == 0 {
		c.HeartbeatEvery = 100 * time.Millisecond
	}
	if c.PeerTimeout == 0 {
		c.PeerTimeout = 3 * time.Second
	}
	if c.BootstrapTimeout == 0 {
		c.BootstrapTimeout = 30 * time.Second
	}
}

// ackEveryBytes is how much of a peer's stream the receiver releases
// between two prompt ACKs. It bounds the peer's replay queue — and the
// frames it keeps out of the wire pool — to this plus what is in flight,
// whatever the heartbeat period.
const ackEveryBytes = 1 << 20

// maxPendingFrames bounds the receiver-side reorder buffer per peer. The
// sender writes in order on one connection at a time, so pending frames
// only accumulate across a reconnect window; past this the stream is
// declared corrupt.
const maxPendingFrames = 4096

// WireStats is the endpoint's cumulative socket accounting, the measured
// side of the α-β wire-time validation (internal/costmodel).
type WireStats struct {
	BytesTx, BytesRx   uint64 // frame bytes written / read (length prefixes included)
	FramesTx, FramesRx uint64
	DialRetries        uint64 // failed dial attempts (bootstrap + reconnect)
	Reconnects         uint64 // connections re-established after a drop
	WriteNanos         uint64 // wall time blocked in socket writes (data + control)
}

// tcpPeer is the local view of one remote rank: the current connection
// (writes serialized under mu), outbound wire sequence, and the receive
// side's in-order release state.
type tcpPeer struct {
	rank int

	mu      sync.Mutex // guards conn, addr, wireOut, unacked, grace; serializes writes
	conn    gonet.Conn
	addr    string // advertised data listener, for redial
	wireOut uint64
	grace   *time.Timer // armed when the conn is lost; fires peerFailed if no replacement

	// unacked is the replay queue: every data frame written but not yet
	// covered by the peer's cumulative ACK, in wire-sequence order. A closed
	// socket silently discards in-flight bytes in BOTH directions — a
	// sender whose Write succeeded cannot know whether the peer read the
	// frame — so every reconnect replays the whole queue and the receiver's
	// sequence dedup discards what already arrived. An ACK pops the frames
	// it covers off the front into the wire pool. The peer ACKs as soon as
	// it has released ackEveryBytes of this stream, and on every heartbeat,
	// so the queue holds about ackEveryBytes plus what is in flight.
	unacked []sentFrame

	rmu      sync.Mutex    // guards pending, released; serializes wireIn's writes
	wireIn   atomic.Uint64 // frames released to the inbox: what an ACK of this side says
	pending  map[uint64]Message
	released int         // bytes of frames released since the last prompt ACK
	ackDue   atomic.Bool // a prompt ACK is owed (ackSoon)

	inbox    chan Message
	attached atomic.Bool // a connection was attached at least once (bootstrap count)
	departed atomic.Bool // peer said BYE: teardown is benign
	failed   atomic.Bool // peer declared failed: stop detecting it again
}

// sentFrame is a data frame in the replay queue: the frame view of a pooled
// buffer, kept with the buffer the ACK hands back.
type sentFrame struct {
	seq   uint64
	frame []byte
	buf   []float64
}

// TCPEndpoint is one rank of a multi-process world over TCP or Unix
// sockets. One connection per unordered rank pair (full duplex), a
// per-pair wire sequence for exactly-once in-order delivery across
// reconnects, heartbeat liveness, and FAIL/BYE control frames that feed
// the dist runtime's failure broadcast.
type TCPEndpoint struct {
	cfg   TCPConfig
	ln    gonet.Listener
	peers []*tcpPeer // peers[rank]; peers[self] carries only the loopback inbox

	hmu sync.Mutex
	h   FailureHandler

	down   atomic.Bool // world poisoned (Abort, or FAIL received)
	closed atomic.Bool
	bye    atomic.Bool // Goodbye sent: suppress heartbeats and redials

	stopOnce sync.Once
	stopCh   chan struct{} // closed on first of Abort/Close: unblocks inbox feeds

	firstAttach chan struct{} // one token per peer's first connection (bootstrap count)
	ackWake     chan struct{} // one slot: a peer's prompt ACK is due (ackSoon)

	bytesTx, bytesRx, framesTx, framesRx atomic.Uint64
	dialRetries, reconnects, writeNanos  atomic.Uint64

	log             *obs.Log // this rank's event log: connection events land in its ring
	mTx, mRx, mDial *metrics.Counter
}

// The transport's connection events, interned once.
var (
	codeDialRetry   = obs.Code("net.dial-retry")
	codeReconnect   = obs.Code("net.reconnect")
	codeConnLost    = obs.Code("net.conn-lost")
	codePeerTimeout = obs.Code("net.peer-timeout")
)

// event leaves a connection event about a peer (or a count) on the rank's log.
func (e *TCPEndpoint) event(code uint32, a int64) {
	e.log.Record(obs.KindCounter, code, obs.Now(), 0, a, 0, 0)
}

// DialTCP bootstraps this rank into the world and blocks until the full
// mesh is established: rank 0 listens at the rendezvous address and
// collects a HELLO from every peer (a peer opens its own listener only once
// its rendezvous connection is up), answers with the address table, and
// each rank then dials every lower-ranked peer directly. Dials use
// bounded retry with exponential backoff and jitter, so start order does
// not matter.
func DialTCP(cfg TCPConfig) (*TCPEndpoint, error) {
	cfg.defaults()
	if cfg.Size < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.Size {
		return nil, fmt.Errorf("net: rank %d of world %d", cfg.Rank, cfg.Size)
	}
	if cfg.Size > 1 && cfg.Rendezvous == "" {
		return nil, errors.New("net: rendezvous address required for world size > 1")
	}

	e := &TCPEndpoint{
		cfg:         cfg,
		stopCh:      make(chan struct{}),
		firstAttach: make(chan struct{}, cfg.Size),
		ackWake:     make(chan struct{}, 1),
		log:         obs.Rank(cfg.Rank),
		mTx:         metrics.NetBytesTotal.With("tx"),
		mRx:         metrics.NetBytesTotal.With("rx"),
		mDial:       metrics.NetDialRetriesTotal,
	}
	e.peers = make([]*tcpPeer, cfg.Size)
	for r := 0; r < cfg.Size; r++ {
		e.peers[r] = &tcpPeer{
			rank:    r,
			inbox:   make(chan Message, DefaultMailboxCap),
			pending: make(map[uint64]Message),
		}
	}
	if cfg.Size == 1 {
		return e, nil
	}

	// Every rank listens: rank 0 at the rendezvous, others at their own
	// (possibly auto-assigned loopback) address, once their rendezvous
	// connection is up. Rank 0 then holds the rendezvous port, so no peer's
	// auto-assigned port can be the one a slower rank 0 is about to bind.
	deadline := time.Now().Add(cfg.BootstrapTimeout)
	listenAddr := cfg.Addr
	var rdv gonet.Conn
	if cfg.Rank == 0 {
		listenAddr = cfg.Rendezvous
	} else {
		if listenAddr == "" {
			if cfg.Network != "tcp" {
				return nil, fmt.Errorf("net: rank %d needs an explicit -addr on network %q", cfg.Rank, cfg.Network)
			}
			listenAddr = "127.0.0.1:0"
		}
		var err error
		if rdv, err = e.dialRetry(cfg.Rendezvous); err != nil {
			return nil, fmt.Errorf("net: rank %d rendezvous %s: %w", cfg.Rank, cfg.Rendezvous, err)
		}
	}
	ln, err := listen(cfg.Network, listenAddr)
	if err != nil {
		if rdv != nil {
			rdv.Close()
		}
		return nil, fmt.Errorf("net: rank %d listen %s: %w", cfg.Rank, listenAddr, err)
	}
	e.ln = ln
	go e.acceptLoop()

	if cfg.Rank == 0 {
		err = e.bootstrapRoot(deadline)
	} else {
		err = e.bootstrapPeer(rdv, ln.Addr().String(), deadline)
	}
	if err != nil {
		e.Close()
		return nil, err
	}
	go e.heartbeatLoop()
	return e, nil
}

// bootstrapRoot waits for a HELLO from every peer (the accept loop
// attaches each connection), then broadcasts the address table.
func (e *TCPEndpoint) bootstrapRoot(deadline time.Time) error {
	if err := e.awaitMesh(e.cfg.Size-1, deadline); err != nil {
		return err
	}
	addrs := make([]string, e.cfg.Size)
	addrs[0] = e.ln.Addr().String()
	for r := 1; r < e.cfg.Size; r++ {
		p := e.peers[r]
		p.mu.Lock()
		addrs[r] = p.addr
		p.mu.Unlock()
	}
	table := encodeAddrs(addrs)
	for r := 1; r < e.cfg.Size; r++ {
		if err := e.writeControl(e.peers[r], table); err != nil {
			return fmt.Errorf("net: rendezvous reply to rank %d: %w", r, err)
		}
	}
	return nil
}

// bootstrapPeer greets rank 0 over the rendezvous connection conn, reads the
// address table, then dials every rank between 0 and itself and waits for
// the ranks above to dial in.
func (e *TCPEndpoint) bootstrapPeer(conn gonet.Conn, ownAddr string, deadline time.Time) error {
	hello := encodeHello(e.cfg.Rank, ownAddr)
	conn.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return fmt.Errorf("net: rank %d hello: %w", e.cfg.Rank, err)
	}
	// The address table arrives on this connection before any other
	// traffic from rank 0; read it synchronously, then hand the
	// connection to the normal reader.
	conn.SetReadDeadline(deadline)
	f, err := (&frameReader{r: conn}).next()
	if err == nil && f.kind != frameAddrs {
		err = fmt.Errorf("unexpected frame kind %d", f.kind)
	}
	if err != nil {
		conn.Close()
		return fmt.Errorf("net: rank %d awaiting address table: %w", e.cfg.Rank, err)
	}
	addrs, err := decodeAddrs(f.payload)
	if err != nil || len(addrs) != e.cfg.Size {
		conn.Close()
		if err == nil {
			err = fmt.Errorf("table has %d entries, world is %d", len(addrs), e.cfg.Size)
		}
		return fmt.Errorf("net: rank %d address table: %w", e.cfg.Rank, err)
	}
	for r, a := range addrs {
		if r == e.cfg.Rank {
			continue
		}
		p := e.peers[r]
		p.mu.Lock()
		p.addr = a
		p.mu.Unlock()
	}
	e.attach(0, addrs[0], conn)

	// Dial the ranks below us (rank 0 already connected); ranks above dial us.
	for r := 1; r < e.cfg.Rank; r++ {
		c, err := e.dialRetry(addrs[r])
		if err != nil {
			return fmt.Errorf("net: rank %d dialing rank %d at %s: %w", e.cfg.Rank, r, addrs[r], err)
		}
		c.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
		if _, err := c.Write(encodeHello(e.cfg.Rank, ownAddr)); err != nil {
			c.Close()
			return fmt.Errorf("net: rank %d hello to rank %d: %w", e.cfg.Rank, r, err)
		}
		e.attach(r, addrs[r], c)
	}
	return e.awaitMesh(e.cfg.Size-1, deadline)
}

// awaitMesh blocks until `want` distinct peers have attached their first
// connection.
func (e *TCPEndpoint) awaitMesh(want int, deadline time.Time) error {
	for got := 0; got < want; {
		select {
		case <-e.firstAttach:
			got++
		case <-e.stopCh:
			return errors.New("net: endpoint closed during bootstrap")
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("net: rank %d bootstrap timeout with %d/%d peers connected", e.cfg.Rank, got, want)
		}
	}
	return nil
}

// listen opens a rank's listener; a variable so that a test can see when.
var listen = gonet.Listen

// dialRetry dials with bounded attempts, exponential backoff and jitter.
func (e *TCPEndpoint) dialRetry(addr string) (gonet.Conn, error) {
	backoff := e.cfg.DialBackoff
	var lastErr error
	for attempt := 0; attempt < e.cfg.DialRetries; attempt++ {
		if e.closed.Load() || e.down.Load() {
			return nil, ErrWorldDown
		}
		conn, err := gonet.DialTimeout(e.cfg.Network, addr, e.cfg.DialTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		e.noteDialRetry()
		sleep := backoff + time.Duration(rand.Int63n(int64(backoff)))
		select {
		case <-time.After(sleep):
		case <-e.stopCh:
			return nil, ErrWorldDown
		}
		if backoff < time.Second {
			backoff *= 2
		}
	}
	return nil, fmt.Errorf("net: dial %s: %d attempts exhausted: %w", addr, e.cfg.DialRetries, lastErr)
}

// acceptLoop admits inbound connections for the endpoint's whole lifetime:
// bootstrap HELLOs and post-drop reconnects alike.
func (e *TCPEndpoint) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go e.handleInbound(conn)
	}
}

// handleInbound reads the identifying HELLO and attaches the connection.
func (e *TCPEndpoint) handleInbound(conn gonet.Conn) {
	conn.SetReadDeadline(time.Now().Add(e.cfg.BootstrapTimeout))
	f, err := (&frameReader{r: conn}).next()
	if err != nil || f.kind != frameHello {
		conn.Close()
		return
	}
	rank, addr, err := decodeHello(f.payload)
	if err != nil || rank < 0 || rank >= e.cfg.Size || rank == e.cfg.Rank {
		conn.Close()
		return
	}
	e.attach(rank, addr, conn)
}

// attach installs conn as the current connection to peer `rank`,
// replacing (and closing) any previous one, cancelling a pending failure
// grace timer, and starting a reader.
func (e *TCPEndpoint) attach(rank int, addr string, conn gonet.Conn) {
	p := e.peers[rank]
	p.mu.Lock()
	first := !p.attached.Swap(true)
	if addr != "" {
		p.addr = addr
	}
	if p.conn != nil {
		p.conn.Close()
	}
	p.conn = conn
	if p.grace != nil {
		p.grace.Stop()
		p.grace = nil
	}
	e.retransmitLocked(p) // replay unacked frames; a dead conn surfaces via readLoop
	p.mu.Unlock()
	if first {
		select {
		case e.firstAttach <- struct{}{}:
		default:
		}
	}
	go e.readLoop(p, conn)
}

// readLoop drains one connection until it dies, dispatching frames. A data
// frame's words are read straight into a pooled buffer (frameReader).
// It never writes: a reader blocked on a write would stop draining its
// socket, and two such ranks would wait on each other; an ACK it owes is
// written by the heartbeat goroutine (ackSoon).
func (e *TCPEndpoint) readLoop(p *tcpPeer, conn gonet.Conn) {
	fr := frameReader{r: conn, pool: &wire}
	for {
		conn.SetReadDeadline(time.Now().Add(e.cfg.PeerTimeout))
		f, err := fr.next()
		if err != nil {
			conn.Close()
			if errors.As(err, new(corruptFrame)) {
				e.peerFailed(p.rank, fmt.Errorf("net: corrupt stream from rank %d: %w", p.rank, err))
			} else {
				e.connLost(p, conn, err)
			}
			return
		}
		e.noteRx(f.size)
		var derr error
		switch f.kind {
		case frameData:
			if !e.deliver(p, f.wireSeq, f.msg) {
				return // world stopped while the inbox was full
			}
		case frameHeartbeat:
			// Nothing to do: the next loop iteration renews the deadline.
		case frameAck:
			var upto uint64
			if upto, derr = decodeAck(f.payload); derr == nil {
				derr = e.acked(p, upto)
			}
		case frameFail:
			rank, cause, derr := decodeFail(f.payload)
			if derr == nil {
				// A relayed FAIL frame carries the relay's own report of
				// the failure: name the report once.
				report := fmt.Sprintf("net: rank %d reported failed: ", rank)
				e.peerFailed(rank, errors.New(report+strings.TrimPrefix(cause, report)))
			}
		case frameBye:
			if rank, derr := decodeBye(f.payload); derr == nil && rank == p.rank {
				p.departed.Store(true)
			}
		default:
			// Unknown or late bootstrap frame: ignore.
		}
		if derr != nil {
			conn.Close()
			e.peerFailed(p.rank, fmt.Errorf("net: corrupt stream from rank %d: %w", p.rank, derr))
			return
		}
	}
}

// acked applies the peer's cumulative ACK: every frame below upto has been
// released to its inbox, so the replay queue's front up to there is popped
// into the wire pool. An ACK beyond the frames this side has written is a
// corrupt or stale stream and is refused with the queue intact — the frames
// it would drop may be exactly the ones the next reconnect must replay.
func (e *TCPEndpoint) acked(p *tcpPeer, upto uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if upto > p.wireOut {
		return fmt.Errorf("net: ack up to frame %d, only %d sent", upto, p.wireOut)
	}
	k := 0
	for ; k < len(p.unacked) && p.unacked[k].seq < upto; k++ {
		wire.put(p.unacked[k].buf)
	}
	n := copy(p.unacked, p.unacked[k:])
	clear(p.unacked[n:])
	p.unacked = p.unacked[:n]
	return nil
}

// deliver releases data frames to the inbox in wire-sequence order,
// discarding duplicates from resends after a reconnect, and every frame once
// the endpoint has stopped. Every ackEveryBytes released it asks for a
// prompt ACK. Returns false if the world stopped while blocked on a full
// inbox.
func (e *TCPEndpoint) deliver(p *tcpPeer, seq uint64, m Message) bool {
	p.rmu.Lock()
	defer p.rmu.Unlock()
	if seq < p.wireIn.Load() || e.down.Load() || e.closed.Load() {
		wire.put(m.Data)
		return true // a duplicate of a released frame, or nobody will take it
	}
	if len(p.pending) >= maxPendingFrames {
		wire.put(m.Data)
		err := fmt.Errorf("net: rank %d reorder buffer overflow (seq %d, expecting %d)", p.rank, seq, p.wireIn.Load())
		p.rmu.Unlock() // peerFailed → handler → Abort → release wants p.rmu
		e.peerFailed(p.rank, err)
		p.rmu.Lock() // re-lock for the deferred unlock
		return false
	}
	p.pending[seq] = m
	for {
		in := p.wireIn.Load()
		next, ok := p.pending[in]
		if !ok {
			return true
		}
		delete(p.pending, in)
		select {
		case p.inbox <- next:
		case <-e.stopCh:
			wire.put(next.Data)
			return false
		}
		p.wireIn.Store(in + 1)
		if p.released += dataFrameLen(len(next.Data)); p.released >= ackEveryBytes {
			p.released = 0
			e.ackSoon(p)
		}
	}
}

// ackSoon has the heartbeat goroutine ACK p's stream now. The read loop
// that calls it must not write itself: it only raises the flag and wakes
// the writer through a one-slot channel.
func (e *TCPEndpoint) ackSoon(p *tcpPeer) {
	p.ackDue.Store(true)
	select {
	case e.ackWake <- struct{}{}:
	default:
	}
}

// connLost handles a dead connection: benign if the peer said goodbye or
// we are shutting down, otherwise it arms a grace timer — if no
// replacement connection attaches within PeerTimeout, the peer is
// declared failed.
func (e *TCPEndpoint) connLost(p *tcpPeer, conn gonet.Conn, err error) {
	if e.closed.Load() || e.down.Load() || p.departed.Load() || p.failed.Load() {
		return
	}
	p.mu.Lock()
	if p.conn != conn {
		p.mu.Unlock()
		return // already replaced: stale reader
	}
	p.conn = nil
	if p.grace == nil {
		cause := fmt.Errorf("net: lost connection to rank %d: %w", p.rank, err)
		e.event(codeConnLost, int64(p.rank))
		p.grace = time.AfterFunc(e.cfg.PeerTimeout, func() {
			p.mu.Lock()
			dead := p.conn == nil
			p.grace = nil
			p.mu.Unlock()
			if dead && !e.closed.Load() && !e.down.Load() && !p.departed.Load() {
				e.event(codePeerTimeout, int64(p.rank))
				e.peerFailed(p.rank, cause)
			}
		})
	}
	p.mu.Unlock()
}

// peerFailed reports a failed peer to the installed handler exactly once
// per rank.
func (e *TCPEndpoint) peerFailed(rank int, cause error) {
	if rank < 0 || rank >= e.cfg.Size {
		return
	}
	if e.peers[rank].failed.Swap(true) {
		return
	}
	e.hmu.Lock()
	h := e.h
	e.hmu.Unlock()
	if h != nil {
		h(rank, cause)
	}
}

// Size returns the world size.
func (e *TCPEndpoint) Size() int { return e.cfg.Size }

// Rank returns the local rank.
func (e *TCPEndpoint) Rank() int { return e.cfg.Rank }

// Inbox returns the in-order arrival channel for one peer.
func (e *TCPEndpoint) Inbox(from int) <-chan Message { return e.peers[from].inbox }

// Recycle hands a received payload back to the wire pool.
func (e *TCPEndpoint) Recycle(data []float64) { wire.put(data) }

// Keep takes a received payload the caller keeps out of the wire pool's
// count.
func (e *TCPEndpoint) Keep(data []float64) { wire.forget(data) }

// SetFailureHandler installs the peer-failure callback.
func (e *TCPEndpoint) SetFailureHandler(h FailureHandler) {
	e.hmu.Lock()
	e.h = h
	e.hmu.Unlock()
}

// Send frames m to peer `to`, redialing and resending on connection loss:
// the words are encoded straight from m.Data into a frame of the wire pool,
// which the replay queue keeps until the peer ACKs it. Self-sends bypass the
// wire and copy the words into a pooled payload buffer instead.
func (e *TCPEndpoint) Send(to int, m Message) error {
	if e.down.Load() {
		return ErrWorldDown
	}
	if e.closed.Load() {
		return errors.New("net: endpoint closed")
	}
	p := e.peers[to]
	if to == e.cfg.Rank {
		data := wire.payload(len(m.Data))
		copy(data, m.Data)
		m.Data = data
		select {
		case p.inbox <- m:
			return nil
		case <-e.stopCh:
			wire.put(data)
			return ErrWorldDown
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.unacked) >= maxPendingFrames {
		err := fmt.Errorf("net: rank %d retransmit buffer overflow (%d unacked frames)", to, len(p.unacked))
		p.mu.Unlock()
		e.peerFailed(to, err)
		p.mu.Lock()
		return err
	}
	seq := p.wireOut
	p.wireOut++
	buf, frame := wire.frame(len(m.Data))
	encodeData(frame, seq, m)

	backoff := e.cfg.DialBackoff
	var lastErr error
	for attempt := 0; attempt <= e.cfg.DialRetries; attempt++ {
		if e.down.Load() || e.closed.Load() {
			wire.put(buf)
			return ErrWorldDown
		}
		if p.failed.Load() {
			wire.put(buf)
			return fmt.Errorf("net: rank %d already declared failed", to)
		}
		if p.conn == nil {
			if err := e.redialLocked(p, &backoff); err != nil {
				lastErr = err
				continue
			}
		}
		if e.cfg.OnWire != nil {
			drop, delay := e.cfg.OnWire(attempt + 1)
			if delay > 0 {
				time.Sleep(delay)
			}
			if drop {
				p.conn.Close()
				p.conn = nil
				continue // redial and resend the same frame
			}
		}
		conn := p.conn
		conn.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
		t0 := time.Now()
		_, err := conn.Write(frame)
		e.writeNanos.Add(uint64(time.Since(t0).Nanoseconds()))
		if err == nil {
			e.noteTx(len(frame))
			// Keep the frame for replay until the peer ACKs past it: the
			// write reaching the kernel does not mean the peer read it.
			p.unacked = append(p.unacked, sentFrame{seq, frame, buf})
			return nil
		}
		lastErr = err
		conn.Close()
		if p.conn == conn {
			p.conn = nil
		}
	}
	wire.put(buf)
	err := fmt.Errorf("net: send to rank %d: %w", to, lastErr)
	p.mu.Unlock() // peerFailed → handler → dist fail → Abort wants peer mutexes
	e.peerFailed(to, err)
	p.mu.Lock() // re-lock for the deferred unlock
	return err
}

// redialLocked re-establishes p's connection with a single attempt: dial,
// hello, replay of the queue, a new reader. A failed dial sleeps the
// caller's evolving backoff, if it has one (nil: the heartbeat's heal, which
// tries again next tick). The caller holds p.mu.
func (e *TCPEndpoint) redialLocked(p *tcpPeer, backoff *time.Duration) error {
	if p.addr == "" {
		return fmt.Errorf("net: no known address for rank %d", p.rank)
	}
	conn, err := gonet.DialTimeout(e.cfg.Network, p.addr, e.cfg.DialTimeout)
	if err != nil {
		e.noteDialRetry()
		if backoff != nil {
			sleep := *backoff + time.Duration(rand.Int63n(int64(*backoff)))
			if *backoff < time.Second {
				*backoff *= 2
			}
			select {
			case <-time.After(sleep):
			case <-e.stopCh:
			}
		}
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
	if _, err := conn.Write(encodeHello(e.cfg.Rank, e.ownAddr())); err != nil {
		conn.Close()
		return err
	}
	p.conn = conn
	if p.grace != nil {
		p.grace.Stop()
		p.grace = nil
	}
	if err := e.retransmitLocked(p); err != nil {
		conn.Close()
		p.conn = nil
		return err
	}
	e.reconnects.Add(1)
	e.event(codeReconnect, int64(p.rank))
	go e.readLoop(p, conn)
	return nil
}

// retransmitLocked replays every unacknowledged data frame in wire-
// sequence order on p's current connection. The receiver's in-order
// release state drops the ones that did arrive before the old connection
// died. Caller holds p.mu.
func (e *TCPEndpoint) retransmitLocked(p *tcpPeer) error {
	if p.conn == nil {
		return nil
	}
	for _, f := range p.unacked {
		p.conn.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
		t0 := time.Now()
		_, err := p.conn.Write(f.frame)
		e.writeNanos.Add(uint64(time.Since(t0).Nanoseconds()))
		if err != nil {
			return err
		}
		e.noteTx(len(f.frame))
	}
	return nil
}

func (e *TCPEndpoint) ownAddr() string {
	if e.ln != nil {
		return e.ln.Addr().String()
	}
	return ""
}

// writeControl writes a prebuilt control frame on p's current connection.
func (e *TCPEndpoint) writeControl(p *tcpPeer, frame []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		return fmt.Errorf("net: no connection to rank %d", p.rank)
	}
	p.conn.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
	t0 := time.Now()
	_, err := p.conn.Write(frame)
	e.writeNanos.Add(uint64(time.Since(t0).Nanoseconds()))
	if err == nil {
		e.noteTx(len(frame))
	}
	return err
}

// heartbeatLoop beacons liveness to every peer and heals idle dropped
// connections with a single redial attempt per tick. Between ticks it
// writes the prompt ACKs the read loops ask for (ackSoon).
func (e *TCPEndpoint) heartbeatLoop() {
	// Beacon = heartbeat + cumulative ACK of what this side has released
	// from the peer's stream, pruning its replay queue; a prompt ACK is the
	// beacon's tail alone. One buffer, the count rewritten per peer.
	beacon := append(encodeHeartbeat(), encodeAck(0)...)
	ack := beacon[len(beacon)-len(encodeAck(0)):]
	t := time.NewTicker(e.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		tick := false
		select {
		case <-e.stopCh:
			return
		case <-t.C:
			tick = true
		case <-e.ackWake:
		}
		if e.down.Load() || e.bye.Load() {
			return
		}
		for _, p := range e.peers {
			if p.rank == e.cfg.Rank || p.departed.Load() || p.failed.Load() {
				continue
			}
			if due := p.ackDue.Swap(false); !due && !tick {
				continue
			}
			binary.LittleEndian.PutUint64(beacon[len(beacon)-8:], p.wireIn.Load())
			if tick {
				e.beat(p, beacon, true)
			} else {
				e.beat(p, ack, false)
			}
		}
	}
}

// beat writes a beacon or a prompt ACK to p. A beacon also heals a dropped
// connection with one redial attempt.
func (e *TCPEndpoint) beat(p *tcpPeer, frame []byte, heal bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn == nil {
		if heal && !e.bye.Load() {
			e.redialLocked(p, nil)
		}
		return
	}
	p.conn.SetWriteDeadline(time.Now().Add(e.cfg.WriteTimeout))
	if _, err := p.conn.Write(frame); err != nil {
		p.conn.Close()
		p.conn = nil
	} else {
		e.noteTx(len(frame))
	}
}

// Abort broadcasts that rank failedRank is down (usually this rank, or a
// relay of a locally detected failure) and poisons the endpoint so
// blocked sends and inbox feeds unwind.
func (e *TCPEndpoint) Abort(failedRank int, cause error) {
	if e.down.Swap(true) {
		return
	}
	msg := ""
	if cause != nil {
		msg = cause.Error()
	}
	frame := encodeFail(failedRank, msg)
	for _, p := range e.peers {
		if p.rank == e.cfg.Rank || p.departed.Load() {
			continue
		}
		e.writeControl(p, frame)
	}
	e.stopOnce.Do(func() { close(e.stopCh) })
	e.release()
}

// Goodbye announces clean completion so peers treat the connection
// teardown as benign rather than a crash.
func (e *TCPEndpoint) Goodbye() {
	if e.bye.Swap(true) {
		return
	}
	frame := encodeBye(e.cfg.Rank)
	for _, p := range e.peers {
		if p.rank == e.cfg.Rank || p.failed.Load() {
			continue
		}
		e.writeControl(p, frame)
	}
}

// Close tears the endpoint down: listener, connections, and any blocked
// send or inbox feed.
func (e *TCPEndpoint) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	e.stopOnce.Do(func() { close(e.stopCh) })
	if e.ln != nil {
		e.ln.Close()
	}
	for _, p := range e.peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		if p.grace != nil {
			p.grace.Stop()
			p.grace = nil
		}
		p.mu.Unlock()
	}
	e.release()
	return nil
}

// release hands the buffers the endpoint keeps for its peers back to the
// wire pool: the replay queues and the reorder buffers. Abort and Close call
// it once the endpoint has stopped, after which Send and deliver add
// nothing to either.
func (e *TCPEndpoint) release() {
	for _, p := range e.peers {
		p.mu.Lock()
		for _, f := range p.unacked {
			wire.put(f.buf)
		}
		p.unacked = nil
		p.mu.Unlock()
		p.rmu.Lock()
		for _, m := range p.pending {
			wire.put(m.Data)
		}
		clear(p.pending)
		p.rmu.Unlock()
	}
}

// WireStats returns the endpoint's cumulative socket accounting.
func (e *TCPEndpoint) WireStats() WireStats {
	return WireStats{
		BytesTx:     e.bytesTx.Load(),
		BytesRx:     e.bytesRx.Load(),
		FramesTx:    e.framesTx.Load(),
		FramesRx:    e.framesRx.Load(),
		DialRetries: e.dialRetries.Load(),
		Reconnects:  e.reconnects.Load(),
		WriteNanos:  e.writeNanos.Load(),
	}
}

func (e *TCPEndpoint) noteTx(n int) {
	e.bytesTx.Add(uint64(n))
	e.framesTx.Add(1)
	e.mTx.Add(int64(n))
}

func (e *TCPEndpoint) noteRx(n int) {
	e.bytesRx.Add(uint64(n))
	e.framesRx.Add(1)
	e.mRx.Add(int64(n))
}

func (e *TCPEndpoint) noteDialRetry() {
	e.dialRetries.Add(1)
	e.mDial.Inc()
	e.event(codeDialRetry, 1)
}
