//go:build !vectorpoison

package vector

// Poison is set by the vectorpoison build tag, a test-only mode in which
// everything recycled is overwritten before its next use: Scratch.Reset
// fills freed lanes with sentinels, Groups.Release its groups, and the
// runtime scribbles over raw record buffers. A stale read then fails loudly.
const Poison = false
