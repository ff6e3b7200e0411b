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
