package tensor

import "fmt"

// Elem is the set of element types the width-generic compiled path
// (internal/fuse) instantiates its matrix views, buffers and kernels over.
type Elem interface{ ~float32 | ~float64 }

// Mat is a dense row-major matrix view over elements of type T. It is
// deliberately minimal — the public model API stays Dense; Mat exists so
// compiled plans can run one op body at either element width. Mat[float64]
// has exactly Dense's layout, so a *Dense converts to a *Mat[float64] (and
// back) with a pointer conversion: the float64 instantiation aliases caller
// storage instead of copying it.
type Mat[T Elem] struct {
	Rows, Cols int
	Data       []T
}

// NewMat returns a zeroed r×c matrix of T.
func NewMat[T Elem](r, c int) *Mat[T] {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %d×%d", r, c))
	}
	return &Mat[T]{Rows: r, Cols: c, Data: make([]T, r*c)}
}

// Typed is a dense matrix at one of the two element widths: the activation
// one compiled plan hands to the next, which at float32 need not make the
// detour through the float64 public type. At most one field is set; neither
// is "no matrix", what an off-diagonal rank of a process grid holds.
type Typed struct {
	F64 *Dense
	F32 *Mat[float32]
}

// Dims returns the shape of the matrix, and false when there is none.
func (v Typed) Dims() (rows, cols int, ok bool) {
	switch {
	case v.F64 != nil:
		return v.F64.Rows, v.F64.Cols, true
	case v.F32 != nil:
		return v.F32.Rows, v.F32.Cols, true
	}
	return 0, 0, false
}

// Cast converts src element-wise into dst (equal lengths): rounding when D
// is narrower than S, widening when it is wider, a plain copy when they are
// the same. This is the one conversion the plan boundary and the float32
// weights format are built from.
func Cast[D, S Elem](dst []D, src []S) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Cast length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] = D(v)
	}
}
