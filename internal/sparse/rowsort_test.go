package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"agnn/internal/par"
)

// refFromCOO is FromCOO by definition: the entries stably sorted by (row,
// col), then each run of one position merged, its values summed in input
// order.
func refFromCOO(c *COO) *CSR {
	idx := make([]int, c.Len())
	for p := range idx {
		idx[p] = p
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		if c.Row[a] != c.Row[b] {
			return int(c.Row[a]) - int(c.Row[b])
		}
		return int(c.Col[a]) - int(c.Col[b])
	})
	out := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int64, c.Rows+1)}
	if c.Val != nil {
		out.Val = []float64{}
	}
	for k, p := range idx {
		if k > 0 && c.Row[p] == c.Row[idx[k-1]] && c.Col[p] == c.Col[idx[k-1]] {
			if c.Val != nil {
				out.Val[len(out.Val)-1] += c.Val[p]
			}
			continue
		}
		out.RowPtr[c.Row[p]+1]++
		out.Col = append(out.Col, c.Col[p])
		if c.Val != nil {
			out.Val = append(out.Val, c.Val[p])
		}
	}
	for i := 0; i < c.Rows; i++ {
		out.RowPtr[i+1] += out.RowPtr[i]
	}
	return out
}

// propertyCOO draws a COO over rows rows and cols columns whose rows mix
// every shape the row kernel tells apart: empty and short rows (insertion),
// rows just past insertionMax, a hub row of thousands of entries, rows whose
// columns share their high digits (radix passes skipped, an odd number run),
// rows already in order, and rows with many duplicates. A weighted COO's
// duplicates of one column carry 1e16, 1, −1e16 in turn, which sum to 0 or 1
// by the order they are added in.
func propertyCOO(rows, cols int, weighted bool, rng *rand.Rand) *COO {
	c := &COO{Rows: rows, Cols: cols}
	if weighted {
		c.Val = []float64{}
	}
	dups := [3]float64{1e16, 1, -1e16}
	seen := map[[2]int32]int{}
	add := func(i int, j int32) {
		c.Row, c.Col = append(c.Row, int32(i)), append(c.Col, j)
		if weighted {
			k := seen[[2]int32{int32(i), j}]
			seen[[2]int32{int32(i), j}] = k + 1
			v := rng.NormFloat64()
			if k < 3 {
				v = dups[k]
			}
			c.Val = append(c.Val, v)
		}
	}
	entries := make([][]int32, rows)
	var order []int // one row id per entry
	for i := range entries {
		var d int
		switch r := rng.Intn(20); {
		case i == rows/3:
			d = 5000 // the hub
		case r < 2:
			d = 0
		case r < 12:
			d = 1 + rng.Intn(insertionMax)
		case r < 16:
			d = insertionMax + 1 + rng.Intn(8)
		default:
			d = insertionMax + rng.Intn(400)
		}
		base, width := 0, cols
		switch rng.Intn(4) {
		case 0: // columns sharing their high digits
			width = min(cols, 200)
			base = rng.Intn(cols - width + 1)
		case 1: // many duplicates
			width = max(1, min(cols, d/4))
		}
		js := make([]int32, d)
		for q := range js {
			js[q] = int32(base + rng.Intn(width))
		}
		if rng.Intn(8) == 0 {
			slices.Sort(js) // already in order
		}
		entries[i] = js
		for range js {
			order = append(order, i)
		}
	}
	// Rows interleave in the input, as an edge list's do; each row's entries
	// keep their order.
	rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	for _, i := range order {
		add(i, entries[i][0])
		entries[i] = entries[i][1:]
	}
	return c
}

// TestFromCOOMatchesReference holds FromCOO to its reference bit for bit
// over rows the workers split, every radix pass count (Cols needing 1 to 4
// 8-bit digits), pattern and weighted COOs, and checks the COO is left as it
// was.
func TestFromCOOMatchesReference(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(4))
	for _, cols := range []int{200, 60_000, 1 << 20, 1 << 30} {
		for _, weighted := range []bool{false, true} {
			t.Run(fmt.Sprintf("cols=%d/weighted=%v", cols, weighted), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(cols) + 7))
				checkFromCOO(t, propertyCOO(1000, cols, weighted, rng))
			})
		}
	}
}

// TestFromCOOEmptyTailRows splits rows whose entries the workers' shares
// divide exactly, followed by empty rows: 298 rows of one entry, then 2 empty,
// on 2 workers. The split by entries cuts after row 149 and again after row
// 298; the empty tail must join the last worker's rows, not open a third.
func TestFromCOOEmptyTailRows(t *testing.T) {
	for _, w := range []int{2, 3, 4} {
		for _, weighted := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/weighted=%v", w, weighted), func(t *testing.T) {
				defer par.SetWorkers(par.SetWorkers(w))
				full := 149 * w // rows holding one entry each
				c := &COO{Rows: full + 2, Cols: full}
				if weighted {
					c.Val = []float64{}
				}
				for i := 0; i < full; i++ {
					c.Row, c.Col = append(c.Row, int32(i)), append(c.Col, int32(full-1-i))
					if weighted {
						c.Val = append(c.Val, float64(i))
					}
				}
				checkFromCOO(t, c)
			})
		}
	}
}

// checkFromCOO holds FromCOO(c) to refFromCOO(c) bit for bit and checks that
// c is left as it was.
func checkFromCOO(t *testing.T, c *COO) {
	t.Helper()
	before := &COO{Rows: c.Rows, Cols: c.Cols, Row: slices.Clone(c.Row), Col: slices.Clone(c.Col), Val: slices.Clone(c.Val)}
	got, want := FromCOO(c), refFromCOO(c)
	if !slices.Equal(c.Row, before.Row) || !slices.Equal(c.Col, before.Col) || !bitsEqual(c.Val, before.Val) {
		t.Fatal("FromCOO changed its argument")
	}
	if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
		t.Fatal("FromCOO pattern differs from the reference")
	}
	if (got.Val == nil) != (c.Val == nil) || !bitsEqual(got.Val, want.Val) {
		t.Fatal("FromCOO values differ from the reference")
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// rmatCOO draws edgeFactor·2^scale undirected R-MAT edges (the Graph500
// initiator), both directions of each, duplicates kept: the input shape of
// infer-hub, whose first rows hold most of the entries.
func rmatCOO(scale, edgeFactor int, seed int64) *COO {
	n := 1 << scale
	rng := rand.New(rand.NewSource(seed))
	c := NewCOO(n, n, 2*edgeFactor*n)
	for k := 0; k < edgeFactor*n; k++ {
		var i, j int32
		for lvl := 0; lvl < scale; lvl++ {
			switch r := rng.Float64(); {
			case r < 0.57:
			case r < 0.76:
				j |= 1 << lvl
			case r < 0.95:
				i |= 1 << lvl
			default:
				i |= 1 << lvl
				j |= 1 << lvl
			}
		}
		if i != j {
			c.Append(i, j)
			c.Append(j, i)
		}
	}
	return c
}

// uniformCOO draws as many entries as rmatCOO's, uniformly over the square.
func uniformCOO(scale, edgeFactor int, seed int64) *COO {
	n := 1 << scale
	rng := rand.New(rand.NewSource(seed))
	c := NewCOO(n, n, 2*edgeFactor*n)
	for k := 0; k < 2*edgeFactor*n; k++ {
		c.Append(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	return c
}

// BenchmarkFromCOO builds the CSR of a 2^16-vertex, 16-edges-per-vertex
// pattern COO: R-MAT (hub rows thousands of entries long, infer-hub's
// shape) and uniform (rows of about 32).
func BenchmarkFromCOO(b *testing.B) {
	for _, in := range []struct {
		name string
		coo  *COO
	}{{"rmat-16", rmatCOO(16, 16, 1)}, {"uniform-16", uniformCOO(16, 16, 1)}} {
		b.Run(in.name, func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				FromCOO(in.coo)
			}
		})
	}
}
