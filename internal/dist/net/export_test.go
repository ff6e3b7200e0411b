package net

// WireOut returns the bytes the process's wire pool counts as out.
func WireOut() int {
	wire.mu.Lock()
	defer wire.mu.Unlock()
	return wire.outB
}
