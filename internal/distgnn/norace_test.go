//go:build !race

package distgnn

const raceEnabled = false
