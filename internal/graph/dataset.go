package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"

	"agnn/internal/sparse"
	"agnn/internal/tensor"
)

// Dataset bundles everything a node-classification experiment needs: the
// adjacency matrix, dense vertex features, integer labels, and a
// transductive train/test split. It replaces the paper artifact's loose
// .npz-plus-scripts arrangement with one self-describing binary file.
type Dataset struct {
	Adj       *sparse.CSR
	Features  *tensor.Dense // n×k
	Labels    []int         // len n, in [0, Classes)
	Classes   int
	TrainMask []bool // len n; vertices not in train are test
}

const datasetMagic = "AGNNDS01"

// Validate checks internal consistency.
func (d *Dataset) Validate() error {
	n := d.Adj.Rows
	if d.Adj.Cols != n {
		return fmt.Errorf("graph: dataset adjacency %d×%d not square", d.Adj.Rows, d.Adj.Cols)
	}
	if d.Features.Rows != n {
		return fmt.Errorf("graph: %d feature rows for %d vertices", d.Features.Rows, n)
	}
	if len(d.Labels) != n || len(d.TrainMask) != n {
		return fmt.Errorf("graph: labels/mask length mismatch (%d/%d for n=%d)",
			len(d.Labels), len(d.TrainMask), n)
	}
	if d.Classes < 1 {
		return fmt.Errorf("graph: %d classes", d.Classes)
	}
	for i, y := range d.Labels {
		if y < 0 || y >= d.Classes {
			return fmt.Errorf("graph: label %d of vertex %d outside [0,%d)", y, i, d.Classes)
		}
	}
	return nil
}

// TestMask returns the complement of the training mask.
func (d *Dataset) TestMask() []bool {
	out := make([]bool, len(d.TrainMask))
	for i, v := range d.TrainMask {
		out[i] = !v
	}
	return out
}

// WriteDataset serializes the dataset.
func WriteDataset(w io.Writer, d *Dataset) error {
	if err := d.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(datasetMagic); err != nil {
		return err
	}
	hdr := []int64{int64(d.Adj.Rows), int64(d.Features.Cols), int64(d.Classes), int64(d.Adj.NNZ())}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for i := 0; i < d.Adj.Rows; i++ {
		for p := d.Adj.RowPtr[i]; p < d.Adj.RowPtr[i+1]; p++ {
			if err := binary.Write(bw, binary.LittleEndian,
				[]int32{int32(i), d.Adj.Col[p]}); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, d.Adj.ValueAt(p)); err != nil {
				return err
			}
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, d.Features.Data); err != nil {
		return err
	}
	labels := make([]int32, len(d.Labels))
	for i, y := range d.Labels {
		labels[i] = int32(y)
	}
	if err := binary.Write(bw, binary.LittleEndian, labels); err != nil {
		return err
	}
	mask := make([]byte, len(d.TrainMask))
	for i, m := range d.TrainMask {
		if m {
			mask[i] = 1
		}
	}
	if _, err := bw.Write(mask); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadDataset parses a dataset written by WriteDataset; the adjacency is a
// pattern when its values are all exactly 1, as ReadCOOBinary's.
func ReadDataset(r io.Reader) (*Dataset, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(datasetMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != datasetMagic {
		return nil, fmt.Errorf("graph: bad dataset magic %q", magic)
	}
	var hdr [4]int64
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	n, k, classes, nnz := int(hdr[0]), int(hdr[1]), int(hdr[2]), int(hdr[3])
	const maxDim = 1<<31 - 1
	if n < 0 || k < 0 || classes < 1 || nnz < 0 ||
		n > maxDim || nnz > maxDim || k > maxDim || int64(n)*int64(k) > maxDim {
		return nil, fmt.Errorf("graph: corrupt dataset header %v", hdr)
	}
	if int64(n) > 64*int64(nnz)+(1<<20) {
		return nil, fmt.Errorf("graph: implausible dataset header %v", hdr)
	}
	capHint := nnz
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	coo := sparse.NewCOO(n, n, capHint)
	for e := 0; e < nnz; e++ {
		var ij [2]int32
		var v float64
		if err := binary.Read(br, binary.LittleEndian, &ij); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
			return nil, err
		}
		if ij[0] < 0 || int(ij[0]) >= n || ij[1] < 0 || int(ij[1]) >= n {
			return nil, fmt.Errorf("graph: dataset entry (%d,%d) outside %d×%d", ij[0], ij[1], n, n)
		}
		coo.AppendVal(ij[0], ij[1], v)
	}
	feats := tensor.NewDense(n, k)
	if err := binary.Read(br, binary.LittleEndian, feats.Data); err != nil {
		return nil, err
	}
	rawLabels := make([]int32, n)
	if err := binary.Read(br, binary.LittleEndian, rawLabels); err != nil {
		return nil, err
	}
	mask := make([]byte, n)
	if _, err := io.ReadFull(br, mask); err != nil {
		return nil, err
	}
	d := &Dataset{
		Adj:       sparse.PatternIfUnit(sparse.FromCOO(coo)),
		Features:  feats,
		Labels:    make([]int, n),
		Classes:   classes,
		TrainMask: make([]bool, n),
	}
	for i := range rawLabels {
		d.Labels[i] = int(rawLabels[i])
		d.TrainMask[i] = mask[i] == 1
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// SaveDataset / LoadDataset are the file-path variants.
func SaveDataset(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteDataset(f, d)
}

// LoadDataset reads a dataset file.
func LoadDataset(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDataset(f)
}

// SyntheticCitation builds a ready-to-train planted-partition dataset:
// community-structured graph, noisy class-indicator features, and a
// trainFrac transductive split.
func SyntheticCitation(n, classes, featDim int, trainFrac float64, seed int64) *Dataset {
	adj, labels := PlantedPartition(n, classes, 0.02, 0.001, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	feats := tensor.RandN(n, featDim, 1, rng)
	mask := make([]bool, n)
	for i := 0; i < n; i++ {
		feats.Set(i, labels[i]%featDim, feats.At(i, labels[i]%featDim)+0.8)
		mask[i] = rng.Float64() < trainFrac
	}
	return &Dataset{Adj: adj, Features: feats, Labels: labels, Classes: classes, TrainMask: mask}
}
