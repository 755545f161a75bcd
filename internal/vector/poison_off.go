//go:build !vectorpoison

package vector

// Poison is set by the vectorpoison build tag, a test-only mode in which
// everything recycled is overwritten before its next use: Scratch.Reset
// fills freed lanes with sentinels, and the runtime scribbles over the raw
// scan's returned record buffers. A stale read then fails loudly.
const Poison = false
