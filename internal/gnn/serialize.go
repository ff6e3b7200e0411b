package gnn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"

	"agnn/internal/tensor"
)

// Weight checkpointing. The format is self-describing and validated on
// load: magic, parameter count, then per parameter its name, shape and
// row-major data (little-endian). Version 2 appends a CRC-32C checksum
// over everything before it, so torn or bit-flipped files are rejected
// instead of silently loading garbage. Version 3 inserts a dtype byte
// after the magic: f64 bodies stay float64, f32 bodies store the
// parameters rounded to float32 (half the bytes — the master weights of a
// mixed-precision run carry no information the f32 kernels ever see
// beyond that rounding anyway, and the stamp makes a cross-dtype resume a
// loud error instead of a silent numerics change). F64 checkpoints are
// still written as v2, so default-path output is byte-identical to
// dtype-unaware builds, and v1/v2 files load as f64. Loading requires a
// model with an identical parameter inventory (same construction config),
// so checkpoints are portable across the single-node, local-formulation
// and distributed engines — they all draw the same parameter sequence.

const (
	weightsMagicV1 = "AGNNWTS1" // legacy: no checksum
	weightsMagicV2 = "AGNNWTS2" // f64: trailing CRC-32C (Castagnoli)
	weightsMagicV3 = "AGNNWTS3" // dtype byte after magic; CRC-32C trailer
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// crcWriter tees everything written into a running CRC.
type crcWriter struct {
	w io.Writer
	h hash.Hash32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if n > 0 {
		c.h.Write(p[:n])
	}
	return n, err
}

// crcReader hashes everything read while on; the trailer itself is read
// with hashing switched off.
type crcReader struct {
	r  io.Reader
	h  hash.Hash32
	on bool
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 && c.on {
		c.h.Write(p[:n])
	}
	return n, err
}

// SaveWeights serializes all parameters of a model at the model's dtype.
func SaveWeights(w io.Writer, m *Model) error { return SaveParamsDType(w, m.Params(), m.DType) }

// SaveParams serializes an explicit parameter list in the v2 (f64,
// CRC-protected) format — the engine-agnostic entry point (the distributed
// engines expose the same parameter sequence as their single-node
// counterparts, so checkpoints are interchangeable).
func SaveParams(w io.Writer, params []*Param) error {
	return SaveParamsDType(w, params, tensor.F64)
}

// SaveParamsDType serializes a parameter list at the given element width:
// F64 writes the v2 format byte-for-byte, F32 writes the v3 format with an
// F32 dtype stamp and float32 parameter data.
func SaveParamsDType(w io.Writer, params []*Param, dt tensor.DType) error {
	bw := bufio.NewWriter(w)
	cw := &crcWriter{w: bw, h: crc32.New(crcTable)}
	magic := weightsMagicV2
	if dt == tensor.F32 {
		magic = weightsMagicV3
	}
	if _, err := io.WriteString(cw, magic); err != nil {
		return err
	}
	if dt == tensor.F32 {
		if _, err := cw.Write([]byte{byte(dt)}); err != nil {
			return err
		}
	}
	if err := writeParamsBody(cw, params, dt); err != nil {
		return err
	}
	// The checksum covers magic (+ dtype) + body and is written outside
	// the tee.
	if err := binary.Write(bw, binary.LittleEndian, cw.h.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

func writeParamsBody(w io.Writer, params []*Param, dt tensor.DType) error {
	if err := binary.Write(w, binary.LittleEndian, int64(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		name := []byte(p.Name)
		if err := binary.Write(w, binary.LittleEndian, int64(len(name))); err != nil {
			return err
		}
		if _, err := w.Write(name); err != nil {
			return err
		}
		hdr := []int64{int64(p.Value.Rows), int64(p.Value.Cols)}
		if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
			return err
		}
		if dt == tensor.F32 {
			data32 := make([]float32, len(p.Value.Data))
			tensor.Cast(data32, p.Value.Data)
			if err := binary.Write(w, binary.LittleEndian, data32); err != nil {
				return err
			}
		} else if err := binary.Write(w, binary.LittleEndian, p.Value.Data); err != nil {
			return err
		}
	}
	return nil
}

// LoadWeights restores parameters into an already-constructed model,
// requiring the checkpoint's dtype stamp to match the model's dtype. The
// checkpoint's parameter sequence (names and shapes) must match the
// model's exactly.
func LoadWeights(r io.Reader, m *Model) error { return LoadParamsDType(r, m.Params(), m.DType) }

// LoadParams restores an explicit parameter list (see SaveParams) for an
// f64 consumer. The CRC-protected v2 format, the legacy v1 format and v3
// f64 files are accepted; files whose checksum does not match are
// rejected.
func LoadParams(r io.Reader, params []*Param) error {
	return LoadParamsDType(r, params, tensor.F64)
}

// LoadParamsDType restores a parameter list, enforcing that the
// checkpoint's element width matches want: resuming an f32 run from an f64
// checkpoint (or vice versa) silently changes every subsequent numeric
// result, so the mismatch is a hard error rather than an implicit cast.
// v1/v2 files carry an implicit f64 stamp.
func LoadParamsDType(r io.Reader, params []*Param, want tensor.DType) error {
	br := bufio.NewReader(r)
	cr := &crcReader{r: br, h: crc32.New(crcTable), on: true}
	magic := make([]byte, len(weightsMagicV2))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return fmt.Errorf("gnn: truncated checkpoint header: %w", err)
	}
	checkDType := func(got tensor.DType) error {
		if got != want {
			return fmt.Errorf("gnn: checkpoint dtype %s does not match model dtype %s; rebuild the model with DType=%s (or re-save the checkpoint) to resume", got, want, got)
		}
		return nil
	}
	readChecked := func(body io.Reader, dt tensor.DType) error {
		if err := readParamsBody(body, params, dt); err != nil {
			return err
		}
		cr.on = false
		var wantSum uint32
		if err := binary.Read(br, binary.LittleEndian, &wantSum); err != nil {
			return fmt.Errorf("gnn: checkpoint missing checksum trailer: %w", err)
		}
		if got := cr.h.Sum32(); got != wantSum {
			return fmt.Errorf("gnn: checkpoint checksum mismatch (file %08x, computed %08x)", wantSum, got)
		}
		return nil
	}
	switch string(magic) {
	case weightsMagicV3:
		var dtb [1]byte
		if _, err := io.ReadFull(cr, dtb[:]); err != nil {
			return fmt.Errorf("gnn: truncated checkpoint dtype: %w", err)
		}
		dt := tensor.DType(dtb[0])
		if dt != tensor.F64 && dt != tensor.F32 {
			return fmt.Errorf("gnn: corrupt checkpoint (dtype byte %d)", dtb[0])
		}
		if err := checkDType(dt); err != nil {
			return err
		}
		return readChecked(cr, dt)
	case weightsMagicV2:
		if err := checkDType(tensor.F64); err != nil {
			return err
		}
		return readChecked(cr, tensor.F64)
	case weightsMagicV1:
		if err := checkDType(tensor.F64); err != nil {
			return err
		}
		return readParamsBody(br, params, tensor.F64)
	default:
		return fmt.Errorf("gnn: bad checkpoint magic %q", magic)
	}
}

func readParamsBody(r io.Reader, params []*Param, dt tensor.DType) error {
	var count int64
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return fmt.Errorf("gnn: truncated checkpoint: %w", err)
	}
	if int(count) != len(params) {
		return fmt.Errorf("gnn: checkpoint has %d parameters, model has %d", count, len(params))
	}
	for _, p := range params {
		var nameLen int64
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return fmt.Errorf("gnn: truncated checkpoint: %w", err)
		}
		if nameLen < 0 || nameLen > 1<<16 {
			return fmt.Errorf("gnn: corrupt checkpoint (name length %d)", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return fmt.Errorf("gnn: truncated checkpoint: %w", err)
		}
		if string(name) != p.Name {
			return fmt.Errorf("gnn: checkpoint parameter %q does not match model parameter %q", name, p.Name)
		}
		var hdr [2]int64
		if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
			return fmt.Errorf("gnn: truncated checkpoint: %w", err)
		}
		if int(hdr[0]) != p.Value.Rows || int(hdr[1]) != p.Value.Cols {
			return fmt.Errorf("gnn: checkpoint %q is %d×%d, model wants %d×%d",
				p.Name, hdr[0], hdr[1], p.Value.Rows, p.Value.Cols)
		}
		if dt == tensor.F32 {
			data32 := make([]float32, len(p.Value.Data))
			if err := binary.Read(r, binary.LittleEndian, data32); err != nil {
				return fmt.Errorf("gnn: truncated checkpoint: %w", err)
			}
			tensor.Cast(p.Value.Data, data32)
		} else if err := binary.Read(r, binary.LittleEndian, p.Value.Data); err != nil {
			return fmt.Errorf("gnn: truncated checkpoint: %w", err)
		}
	}
	return nil
}

// SaveWeightsFile writes a checkpoint to path.
func SaveWeightsFile(path string, m *Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return SaveWeights(f, m)
}

// LoadWeightsFile restores a checkpoint from path.
func LoadWeightsFile(path string, m *Model) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadWeights(f, m)
}
