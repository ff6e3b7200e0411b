package tensor

import "sync/atomic"

// Cache tiling for the bandwidth-bound kernels. The dense MM path and the
// CSR SpMM path both stream a k-wide (or m-wide) operand per row; once that
// operand outgrows L2 the inner loops fall off the roofline (the
// host.stream_gbs ceiling bench/ measures). Tiling the feature/column
// dimension keeps the hot operand block resident: MM re-uses a k×w block of
// B across a worker's row range, SpMM confines the randomly indexed X rows
// to an n×w column stripe. Tiling splits only the *output* columns — every output element
// still accumulates its contributions in the original order, so tiled
// kernels are bitwise-identical to the untiled loops.

// defaultTileBudget is a conservative per-core L2 working-set target.
// Modern x86/ARM server cores carry 512 KiB–2 MiB of private L2; half of a
// small L2 leaves room for the streamed operand and the output rows.
const defaultTileBudget = 256 << 10

var tileBudget atomic.Int64

func init() { tileBudget.Store(defaultTileBudget) }

// SetTileBudget overrides the per-core cache budget (bytes) used to size
// kernel tiles; the -tile flag on the CLIs lands here. budget <= 0 restores
// the default.
func SetTileBudget(budget int64) {
	if budget <= 0 {
		budget = defaultTileBudget
	}
	tileBudget.Store(budget)
}

// TileBudget returns the current per-core cache budget in bytes.
func TileBudget() int64 { return tileBudget.Load() }

// TileCols sizes a column tile so that rows×tile elements of width
// elemSize stay within the cache budget. The result is clamped to
// [minTileCols, cols] and rounded to a multiple of 8 so tiles stay
// line-aligned; when the whole operand fits, it returns cols and the
// kernel degenerates to its untiled single-pass form.
func TileCols(rows, cols int, elemSize int64) int {
	const minTileCols = 8
	if cols <= minTileCols || rows <= 0 {
		return cols
	}
	w := int(tileBudget.Load() / (int64(rows) * elemSize))
	if w >= cols {
		return cols
	}
	if w <= minTileCols {
		return minTileCols
	}
	return w &^ 7
}
