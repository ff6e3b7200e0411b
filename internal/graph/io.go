package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"agnn/internal/sparse"
)

// File formats. The paper's artifact loads adjacency matrices from COO
// stored in compressed .npz files; this repository uses two self-contained
// equivalents: a one-edge-per-line text format ("src dst" pairs) and a
// little-endian binary format with a magic header.

const binMagic = "AGNNCOO1"

// WriteCOOText writes the pattern of a as "src dst" lines.
func WriteCOOText(w io.Writer, a *sparse.CSR) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if _, err := fmt.Fprintf(bw, "%d %d\n", i, a.Col[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCOOText parses "src dst" lines into an n×n adjacency matrix where n
// is one more than the largest vertex id. Lines starting with '#' or '%'
// are comments (SNAP / MatrixMarket headers).
func ReadCOOText(r io.Reader) (*sparse.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	coo := sparse.NewCOO(0, 0, 1024)
	maxID := int32(-1)
	for sc.Scan() {
		line := sc.Text()
		if len(line) == 0 || line[0] == '#' || line[0] == '%' {
			continue
		}
		var i, j int32
		if _, err := fmt.Sscanf(line, "%d %d", &i, &j); err != nil {
			return nil, fmt.Errorf("graph: bad edge line %q: %w", line, err)
		}
		if i < 0 || j < 0 {
			return nil, fmt.Errorf("graph: negative vertex id in %q", line)
		}
		coo.Append(i, j)
		if i > maxID {
			maxID = i
		}
		if j > maxID {
			maxID = j
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Sanity limit mirroring ReadCOOBinary: the vertex-id space may exceed
	// the edge count only by a sane margin, otherwise a single bogus line
	// ("999999999 0") would allocate gigabytes of row pointers.
	if int64(maxID)+1 > 64*int64(coo.Len())+(1<<20) {
		return nil, fmt.Errorf("graph: implausible vertex id %d for %d edges", maxID, coo.Len())
	}
	coo.Rows = int(maxID) + 1
	coo.Cols = int(maxID) + 1
	return sparse.FromCOO(coo), nil
}

// WriteCOOBinary writes a (values included, 1 for a pattern's) in the
// repository's binary COO format: magic, rows, cols, nnz, then (row, col
// int32, val float64) triples, all little-endian.
func WriteCOOBinary(w io.Writer, a *sparse.CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binMagic); err != nil {
		return err
	}
	hdr := []int64{int64(a.Rows), int64(a.Cols), int64(a.NNZ())}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for i := 0; i < a.Rows; i++ {
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			if err := binary.Write(bw, binary.LittleEndian, int32(i)); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, a.Col[p]); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, a.ValueAt(p)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCOOBinary reads the binary COO format written by WriteCOOBinary: a
// pattern when every value it sums to is exactly 1 (sparse.PatternIfUnit,
// after duplicates are summed).
func ReadCOOBinary(r io.Reader) (*sparse.CSR, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != binMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var hdr [3]int64
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	rows, cols, nnz := int(hdr[0]), int(hdr[1]), int(hdr[2])
	const maxDim = 1<<31 - 1 // the sparse package's int32 index limit
	if rows < 0 || cols < 0 || nnz < 0 || rows > maxDim || cols > maxDim || nnz > maxDim {
		return nil, fmt.Errorf("graph: corrupt header %v", hdr)
	}
	// Disproportionate headers (huge dimension, tiny payload) are treated as
	// corruption: the nnz claim is bounded by the stream contents below, and
	// dimensions may exceed it only by a sane margin of isolated vertices.
	if int64(rows)+int64(cols) > 64*int64(nnz)+(1<<20) {
		return nil, fmt.Errorf("graph: implausible header %v", hdr)
	}
	// Cap the pre-allocation hint: a corrupt nnz must not allocate ahead of
	// the data actually present in the stream.
	capHint := nnz
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	coo := sparse.NewCOO(rows, cols, capHint)
	for e := 0; e < nnz; e++ {
		var i, j int32
		var v float64
		if err := binary.Read(br, binary.LittleEndian, &i); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &j); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
			return nil, err
		}
		if i < 0 || int(i) >= rows || j < 0 || int(j) >= cols {
			return nil, fmt.Errorf("graph: entry (%d,%d) outside %d×%d", i, j, rows, cols)
		}
		coo.AppendVal(i, j, v)
	}
	return sparse.PatternIfUnit(sparse.FromCOO(coo)), nil
}

// SaveFile writes a to path, choosing the format by extension: ".txt"/".el"
// text, anything else binary.
func SaveFile(path string, a *sparse.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if isTextPath(path) {
		return WriteCOOText(f, a)
	}
	return WriteCOOBinary(f, a)
}

// LoadFile reads an adjacency matrix from path, choosing the format by
// extension as in SaveFile.
func LoadFile(path string) (*sparse.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if isTextPath(path) {
		return ReadCOOText(f)
	}
	return ReadCOOBinary(f)
}

func isTextPath(path string) bool {
	for _, suf := range []string{".txt", ".el", ".edges"} {
		if len(path) >= len(suf) && path[len(path)-len(suf):] == suf {
			return true
		}
	}
	return false
}
