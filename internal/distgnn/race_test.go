//go:build race

package distgnn

// raceEnabled: the race detector drops sync.Pool items at random, so the
// worker pool's recycled completion channels and tensor's pooled in-place
// jobs allocate now and then; the allocation tests leave such cells out.
const raceEnabled = true
