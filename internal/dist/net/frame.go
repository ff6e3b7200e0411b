package net

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

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
// words: kind(1) + wireSeq(8) + Src(4) + Seq(8) + Step(8) + Clock(8) +
// nwords(4).
const dataFrameHeaderLen = 1 + 8 + 4 + 8 + 8 + 8 + 4

// appendU16/U32/U64 are little-endian append helpers.
func appendU16(b []byte, v uint16) []byte { return append(b, byte(v), byte(v>>8)) }
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// encodeData builds a complete data frame (length prefix included) into
// buf, reusing its capacity.
func encodeData(buf []byte, wireSeq uint64, m Message) []byte {
	n := dataFrameHeaderLen + 8*len(m.Data)
	buf = buf[:0]
	buf = appendU32(buf, uint32(n))
	buf = append(buf, frameData)
	buf = appendU64(buf, wireSeq)
	buf = appendU32(buf, uint32(m.Hdr.Src))
	buf = appendU64(buf, m.Hdr.Seq)
	buf = appendU64(buf, uint64(m.Hdr.Step))
	buf = appendU64(buf, m.Hdr.Clock)
	buf = appendU32(buf, uint32(len(m.Data)))
	for _, v := range m.Data {
		buf = appendU64(buf, math.Float64bits(v))
	}
	return buf
}

// decodeData parses a data frame payload (kind byte already verified).
// The returned Message owns freshly allocated Data.
func decodeData(p []byte) (wireSeq uint64, m Message, err error) {
	if len(p) < dataFrameHeaderLen {
		return 0, m, fmt.Errorf("net: short data frame (%d bytes)", len(p))
	}
	le := binary.LittleEndian
	wireSeq = le.Uint64(p[1:])
	m.Hdr = causal.Header{
		Src:   int32(le.Uint32(p[9:])),
		Seq:   le.Uint64(p[13:]),
		Step:  int64(le.Uint64(p[21:])),
		Clock: le.Uint64(p[29:]),
	}
	nwords := int(le.Uint32(p[37:]))
	if nwords < 0 || dataFrameHeaderLen+8*nwords != len(p) {
		return 0, m, fmt.Errorf("net: data frame declares %d words in %d bytes", nwords, len(p))
	}
	m.Data = make([]float64, nwords)
	for i := range m.Data {
		m.Data[i] = math.Float64frombits(le.Uint64(p[dataFrameHeaderLen+8*i:]))
	}
	return wireSeq, m, nil
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

// readFrame reads one length-prefixed frame payload into buf (grown as
// needed) and returns the payload slice, which aliases buf.
func readFrame(r io.Reader, buf []byte) ([]byte, []byte, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, buf, err
	}
	n := int(binary.LittleEndian.Uint32(lenb[:]))
	if n < 1 || n > maxFrameBytes {
		return nil, buf, fmt.Errorf("net: frame length %d outside (0, %d]", n, maxFrameBytes)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, buf, fmt.Errorf("net: truncated frame: %w", err)
	}
	return buf, buf, nil
}
