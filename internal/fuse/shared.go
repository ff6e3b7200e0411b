package fuse

// Shared is what is left of the process-wide plan cache: a layer owns its
// plans and binds them to each new adjacency (Plan.Bind), so there is no
// cache to purge or measure.
//
// Deprecated: it exists only because the frozen bench/surface.go calls it.
var Shared noCache

type noCache struct{}

// Purge does nothing.
func (noCache) Purge() {}

// Bytes returns 0.
func (noCache) Bytes() int64 { return 0 }

// Len returns 0.
func (noCache) Len() int { return 0 }
