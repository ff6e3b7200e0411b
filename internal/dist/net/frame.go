package net

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"agnn/internal/obs/causal"
)

// Wire framing: every frame is a u32 little-endian payload length followed
// by the payload; payload byte 0 is the frame kind. Data frames carry a
// per-connection-pair wire sequence (for in-order, exactly-once delivery
// across reconnects), the causal Header, and the payload words as raw
// little-endian float64 bits — the same 8-bytes-per-word accounting the
// BSP counters use.
const (
	frameHello     byte = 1 + iota // u32 rank, u16 addrLen, addr — opens a conn
	frameAddrs                     // u32 p, p × (u16 len, addr) — rendezvous address table
	frameData                      // u64 wireSeq, Header, u32 nwords, words
	frameHeartbeat                 // empty — liveness
	frameFail                      // u32 rank, u16 len, cause — failure broadcast
	frameBye                       // u32 rank — clean departure
	frameAck                       // u64 cumulative wireSeq — receiver has released all frames below it
)

// maxFrameBytes bounds a single frame so a corrupt length prefix cannot
// drive an allocation of arbitrary size. 1 GiB covers any realistic
// feature-block chunk.
const maxFrameBytes = 1 << 30

// dataFrameHeaderLen is the payload length of a data frame before its
// words: kind(1) + wireSeq(8) + Src(4) + Seq(8) + Step(8) + nwords(4).
const dataFrameHeaderLen = 1 + 8 + 4 + 8 + 8 + 4

// appendU16/U32/U64 are little-endian append helpers.
func appendU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// dataFrameLen is the length of a data frame of n words, prefix included.
func dataFrameLen(n int) int { return 4 + dataFrameHeaderLen + 8*n }

// encodeData writes a complete data frame (length prefix included) into
// buf, which is exactly dataFrameLen(len(m.Data)) long or else replaced by
// a buffer that is, and returns the frame.
func encodeData(buf []byte, wireSeq uint64, m Message) []byte {
	if len(buf) != dataFrameLen(len(m.Data)) {
		buf = make([]byte, dataFrameLen(len(m.Data)))
	}
	le := binary.LittleEndian
	le.PutUint32(buf, uint32(dataFrameHeaderLen+8*len(m.Data)))
	p := buf[4:]
	p[0] = frameData
	le.PutUint64(p[1:], wireSeq)
	le.PutUint32(p[9:], uint32(m.Hdr.Src))
	le.PutUint64(p[13:], m.Hdr.Seq)
	le.PutUint64(p[21:], uint64(m.Hdr.Step))
	le.PutUint32(p[29:], uint32(len(m.Data)))
	putWords(p[dataFrameHeaderLen:], m.Data)
	return buf
}

// decodeData parses the fixed header h of a data frame (dataFrameHeaderLen
// bytes, kind first) whose payload is n bytes long, n ≥ dataFrameHeaderLen.
// It returns the word count the rest of the payload carries, and rejects a
// count the length does not back — before the caller takes a buffer for the
// words or reads one of them.
func decodeData(h []byte, n int) (wireSeq uint64, hdr causal.Header, nwords int, err error) {
	le := binary.LittleEndian
	wireSeq = le.Uint64(h[1:])
	hdr = causal.Header{
		Src:  int32(le.Uint32(h[9:])),
		Seq:  le.Uint64(h[13:]),
		Step: int64(le.Uint64(h[21:])),
	}
	nwords = int(le.Uint32(h[29:]))
	if dataFrameHeaderLen+8*nwords != n {
		return 0, hdr, 0, fmt.Errorf("net: data frame declares %d words in %d bytes", nwords, n)
	}
	return wireSeq, hdr, nwords, nil
}

// The payload codec: words travel as little-endian float64 bits. On a
// little-endian host those bytes are the words' own memory, so a payload
// is encoded into a frame by one memmove and read from the socket straight
// into its word buffer; elsewhere the per-word loops convert. The host
// decides once, at init.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// putWords writes src into dst (8 bytes per word).
func putWords(dst []byte, src []float64) {
	if littleEndianHost {
		copy(dst, wordBytes(src))
		return
	}
	putWordsLE(dst, src)
}

// wordsFromWire turns words whose bytes were read off the wire into host
// order, in place: nothing to do on a little-endian host.
func wordsFromWire(w []float64) {
	if !littleEndianHost {
		getWordsLE(w, wordBytes(w))
	}
}

// wordBytes views words as their bytes in host order.
func wordBytes(w []float64) []byte {
	if len(w) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), 8*len(w))
}

// putWordsLE and getWordsLE are the per-word codec: the big-endian host's
// path and the test oracle of the memmove and the in-place read. getWordsLE
// may run in place (dst's bytes are src): each word is read before it is
// written.
func putWordsLE(dst []byte, src []float64) {
	for i, v := range src {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
	}
}

func getWordsLE(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// encodeHello builds a hello frame: the dialing rank introduces itself and
// advertises its own data listener for reconnects.
func encodeHello(rank int, addr string) []byte {
	n := 1 + 4 + 2 + len(addr)
	buf := appendU32(make([]byte, 0, 4+n), uint32(n))
	buf = append(buf, frameHello)
	buf = appendU32(buf, uint32(rank))
	buf = appendU16(buf, uint16(len(addr)))
	return append(buf, addr...)
}

func decodeHello(p []byte) (rank int, addr string, err error) {
	if len(p) < 7 {
		return 0, "", fmt.Errorf("net: short hello frame (%d bytes)", len(p))
	}
	le := binary.LittleEndian
	rank = int(int32(le.Uint32(p[1:])))
	n := int(le.Uint16(p[5:]))
	if 7+n != len(p) {
		return 0, "", fmt.Errorf("net: hello frame declares %d addr bytes in %d", n, len(p))
	}
	return rank, string(p[7 : 7+n]), nil
}

// encodeAddrs builds the rendezvous address table rank 0 broadcasts once
// every peer has registered.
func encodeAddrs(addrs []string) []byte {
	n := 1 + 4
	for _, a := range addrs {
		n += 2 + len(a)
	}
	buf := appendU32(make([]byte, 0, 4+n), uint32(n))
	buf = append(buf, frameAddrs)
	buf = appendU32(buf, uint32(len(addrs)))
	for _, a := range addrs {
		buf = appendU16(buf, uint16(len(a)))
		buf = append(buf, a...)
	}
	return buf
}

func decodeAddrs(p []byte) ([]string, error) {
	if len(p) < 5 {
		return nil, fmt.Errorf("net: short addrs frame (%d bytes)", len(p))
	}
	le := binary.LittleEndian
	count := int(le.Uint32(p[1:]))
	if count > (len(p)-5)/2 { // every entry is at least its u16 length
		return nil, fmt.Errorf("net: addrs frame declares %d entries in %d bytes", count, len(p))
	}
	addrs := make([]string, count)
	off := 5
	for i := range addrs {
		if off+2 > len(p) {
			return nil, fmt.Errorf("net: truncated addrs frame")
		}
		n := int(le.Uint16(p[off:]))
		off += 2
		if off+n > len(p) {
			return nil, fmt.Errorf("net: truncated addrs frame")
		}
		addrs[i] = string(p[off : off+n])
		off += n
	}
	return addrs, nil
}

// encodeFail builds a failure broadcast naming the failed rank.
func encodeFail(rank int, cause string) []byte {
	if len(cause) > 1<<12 {
		cause = cause[:1<<12]
	}
	n := 1 + 4 + 2 + len(cause)
	buf := appendU32(make([]byte, 0, 4+n), uint32(n))
	buf = append(buf, frameFail)
	buf = appendU32(buf, uint32(rank))
	buf = appendU16(buf, uint16(len(cause)))
	return append(buf, cause...)
}

func decodeFail(p []byte) (rank int, cause string, err error) {
	if len(p) < 7 {
		return 0, "", fmt.Errorf("net: short fail frame (%d bytes)", len(p))
	}
	le := binary.LittleEndian
	rank = int(int32(le.Uint32(p[1:])))
	n := int(le.Uint16(p[5:]))
	if 7+n != len(p) {
		return 0, "", fmt.Errorf("net: fail frame declares %d cause bytes in %d", n, len(p))
	}
	return rank, string(p[7 : 7+n]), nil
}

// encodeBye / encodeHeartbeat build the two fixed control frames.
func encodeBye(rank int) []byte {
	buf := appendU32(make([]byte, 0, 9), 5)
	buf = append(buf, frameBye)
	return appendU32(buf, uint32(rank))
}

func decodeBye(p []byte) (int, error) {
	if len(p) != 5 {
		return 0, fmt.Errorf("net: bad bye frame (%d bytes)", len(p))
	}
	return int(int32(binary.LittleEndian.Uint32(p[1:]))), nil
}

func encodeHeartbeat() []byte {
	buf := appendU32(make([]byte, 0, 5), 1)
	return append(buf, frameHeartbeat)
}

// encodeAck builds a cumulative acknowledgement: every data frame with
// wireSeq < upto has been released to the inbox, so the sender can drop it
// from its retransmit buffer.
func encodeAck(upto uint64) []byte {
	buf := appendU32(make([]byte, 0, 13), 9)
	buf = append(buf, frameAck)
	return appendU64(buf, upto)
}

func decodeAck(p []byte) (uint64, error) {
	if len(p) != 9 {
		return 0, fmt.Errorf("net: bad ack frame (%d bytes)", len(p))
	}
	return binary.LittleEndian.Uint64(p[1:]), nil
}

// frameReader reads the frames of one connection. The length prefix and
// the kind byte come first, into buf, and are checked; a control frame is
// then read whole into buf, which grows to the largest one seen. A data
// frame's fixed header lands in buf and is checked too, and only then does
// the frame take a payload buffer from pool, into which its words are read
// straight from the stream: no frame buffer holds the words in between.
type frameReader struct {
	r    io.Reader
	pool *wordPool // nil allocates each data frame's words
	buf  []byte
}

// inFrame is one frame as read. size is its length on the wire, prefix
// included. A data frame carries its wire sequence and message, whose Data
// the caller owns from then on; any other kind its payload, kind byte
// first, which aliases the reader's buffer until the next read.
type inFrame struct {
	kind    byte
	size    int
	wireSeq uint64
	msg     Message
	payload []byte
}

// corruptFrame is a data frame its own header refuses: the peer's stream is
// corrupt, where a failed read is a lost connection.
type corruptFrame struct{ error }

// next reads one frame. A data frame its header refuses is a corruptFrame
// and takes no word buffer; one cut short after taking it hands the buffer
// back.
func (fr *frameReader) next() (f inFrame, err error) {
	if cap(fr.buf) < dataFrameHeaderLen {
		fr.buf = make([]byte, dataFrameHeaderLen)
	}
	if _, err := io.ReadFull(fr.r, fr.buf[:5]); err != nil {
		return f, err
	}
	n := int(binary.LittleEndian.Uint32(fr.buf))
	if n < 1 || n > maxFrameBytes {
		return f, fmt.Errorf("net: frame length %d outside (0, %d]", n, maxFrameBytes)
	}
	f.kind, f.size = fr.buf[4], 4+n
	if f.kind != frameData {
		if cap(fr.buf) < n {
			fr.buf = make([]byte, n)
		}
		f.payload = fr.buf[:n]
		f.payload[0] = f.kind
		if _, err := io.ReadFull(fr.r, f.payload[1:]); err != nil {
			return f, fmt.Errorf("net: truncated frame: %w", err)
		}
		return f, nil
	}
	if n < dataFrameHeaderLen {
		return f, corruptFrame{fmt.Errorf("net: short data frame (%d bytes)", n)}
	}
	h := fr.buf[:dataFrameHeaderLen]
	if _, err := io.ReadFull(fr.r, h[1:]); err != nil {
		return f, fmt.Errorf("net: truncated frame: %w", err)
	}
	var nwords int
	if f.wireSeq, f.msg.Hdr, nwords, err = decodeData(h, n); err != nil {
		return f, corruptFrame{err}
	}
	data := fr.pool.payload(nwords)
	if _, err := io.ReadFull(fr.r, wordBytes(data)); err != nil {
		fr.pool.put(data)
		return f, fmt.Errorf("net: truncated frame: %w", err)
	}
	wordsFromWire(data)
	f.msg.Data = data
	return f, nil
}
