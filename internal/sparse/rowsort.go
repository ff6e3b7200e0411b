package sparse

import "unsafe"

// insertionMax is the longest row RowSorter orders by insertion; a longer
// row is radix-sorted on 8-bit digits of its columns.
const insertionMax = 64

// RowSorter is the row kernel of the CSR builders: it orders one row by
// column, stably, and merges a repeated column into one entry. A row of at
// most insertionMax entries is sorted by insertion, a longer one that is not
// already in order by an LSD radix sort with 8-bit digits — ⌈log₂ ncols / 8⌉
// passes, less those whose digit is the same throughout the row — into
// scratch the RowSorter keeps, which grows to the longest row it has
// radix-sorted. A row of length d costs O(d) whatever its order. The zero
// value is ready to use; one RowSorter serves one goroutine.
type RowSorter struct {
	col []int32
	val []float64
}

// SortRow orders the row cols, and vals alongside unless it is nil, by
// column, stably; merges every run of a repeated column into its first
// entry, the run's values summed in the row's order; and returns the row's
// new length. Every column lies in [0, ncols).
func (s *RowSorter) SortRow(cols []int32, vals []float64, ncols int) int {
	if vals != nil {
		vals = vals[:len(cols)]
	}
	if len(cols) <= insertionMax {
		insertionSort(cols, vals)
	} else if !ascending(cols) {
		s.radixSort(cols, vals, uint32(ncols-1))
	}
	return mergeRuns(cols, vals)
}

// insertionSort orders cols, and vals alongside unless nil, stably. The
// entry being placed is written at every step it moves, so no store lands
// past the loop at a position the compiler cannot bound.
func insertionSort(cols []int32, vals []float64) {
	if vals == nil {
		for i := 1; i < len(cols); i++ {
			x := cols[i]
			for j := i; j > 0 && cols[j-1] > x; j-- {
				cols[j], cols[j-1] = cols[j-1], x
			}
		}
		return
	}
	vals = vals[:len(cols)]
	for i := 1; i < len(cols); i++ {
		x, v := cols[i], vals[i]
		for j := i; j > 0 && cols[j-1] > x; j-- {
			cols[j], cols[j-1] = cols[j-1], x
			vals[j], vals[j-1] = vals[j-1], v
		}
	}
}

// ascending reports whether cols is already in order.
func ascending(cols []int32) bool {
	for q := 1; q < len(cols); q++ {
		if cols[q] < cols[q-1] {
			return false
		}
	}
	return true
}

// radixSort orders cols, and vals alongside unless nil, stably by column,
// every column at most maxCol: one pass per 8-bit digit of maxCol, skipping
// a digit the whole row shares, ping-ponging between the row and the scratch
// and copying back if the last pass left the row in the scratch.
func (s *RowSorter) radixSort(cols []int32, vals []float64, maxCol uint32) {
	n := len(cols)
	if cap(s.col) < n {
		s.col = make([]int32, n)
	}
	src, dst, inScratch := cols, s.col[:n], false
	var srcV, dstV []float64
	if vals != nil {
		if cap(s.val) < n {
			s.val = make([]float64, n)
		}
		srcV, dstV = vals, s.val[:n]
	}
	for shift := uint(0); maxCol>>shift != 0; shift += 8 {
		var off [256]uint32
		for _, x := range src {
			off[byte(uint32(x)>>shift)]++
		}
		sum, one := uint32(0), false
		for d, k := range off {
			off[d], sum, one = sum, sum+k, one || k == uint32(n)
		}
		if one {
			continue // one digit throughout: the pass would copy
		}
		scatter(src, dst, srcV, dstV, &off, shift)
		src, dst, srcV, dstV = dst, src, dstV, srcV
		inScratch = !inScratch
	}
	if inScratch {
		copy(cols, src)
		copy(vals, srcV)
	}
}

// scatter moves every entry of src (and srcV, unless nil) to the position
// off holds for its digit, and advances that position. off holds, for each
// digit, the number of entries of src with a smaller digit, so the writes
// cover [0, len(src)) once each and stay inside dst and dstV, which are as
// long as src: the stores go through unsafe.Add, with no check per entry.
func scatter(src, dst []int32, srcV, dstV []float64, off *[256]uint32, shift uint) {
	dp := unsafe.Pointer(unsafe.SliceData(dst[:len(src)]))
	if srcV == nil {
		for _, x := range src {
			d := byte(uint32(x) >> shift)
			o := int(off[d])
			off[d]++
			*(*int32)(unsafe.Add(dp, 4*o)) = x
		}
		return
	}
	srcV = srcV[:len(src)]
	vp := unsafe.Pointer(unsafe.SliceData(dstV[:len(src)]))
	for q, x := range src {
		d := byte(uint32(x) >> shift)
		o := int(off[d])
		off[d]++
		*(*int32)(unsafe.Add(dp, 4*o)) = x
		*(*float64)(unsafe.Add(vp, 8*o)) = srcV[q]
	}
}

// mergeRuns merges every run of a repeated column of the sorted row cols
// into its first entry, summing the run's values (vals, unless nil) left to
// right, and returns the merged length. The merged row is appended over the
// row's own prefix, which never passes the entry being read.
func mergeRuns(cols []int32, vals []float64) int {
	if len(cols) == 0 {
		return 0
	}
	w, last := cols[:1], cols[0]
	if vals == nil {
		for _, x := range cols[1:] {
			if x != last {
				w, last = append(w, x), x
			}
		}
		return len(w)
	}
	vals = vals[:len(cols)]
	rest, restV := cols[1:], vals[1:]
	wv, acc := vals[:0], vals[0]
	for q, x := range rest {
		if x == last {
			acc += restV[q]
			continue
		}
		w, wv = append(w, x), append(wv, acc)
		last, acc = x, restV[q]
	}
	wv = append(wv, acc)
	return len(w)
}
