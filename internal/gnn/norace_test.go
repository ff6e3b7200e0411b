//go:build !race

package gnn

const raceEnabled = false
