//go:build race

package fuse_test

// raceEnabled: the race detector drops sync.Pool items at random, so the
// worker pool's recycled completion channels allocate now and then; the
// allocation checks leave such cells out.
const raceEnabled = true
