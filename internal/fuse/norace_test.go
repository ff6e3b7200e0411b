//go:build !race

package fuse_test

const raceEnabled = false
