package dfs

// Accountant converts a stream of byte counts into simulated block reads
// at BlockSize granularity. It is the single source of truth for block
// accounting: ReadLines charges each split through it, the vector
// backend's raw scan charges each morsel the blocks its records crossed
// (finishing once per scan, on the last morsel), and the segment store
// charges a cold segment file through BlocksFor — so every storage path
// rounds the same way: whole blocks as they are crossed, plus one block for
// a trailing partial block when the stream finishes.
//
// The zero value is ready to use.
type Accountant struct {
	since int64 // bytes consumed since the last whole-block report
}

// Add records n more bytes consumed and returns the number of whole
// blocks newly crossed (possibly zero).
func (a *Accountant) Add(n int64) int {
	a.since += n
	blocks := a.since / BlockSize
	a.since %= BlockSize
	return int(blocks)
}

// Finish rounds a trailing partial block up to one block read — the bytes
// were fetched, so the round trip happened — and resets the accountant.
// It returns 0 when the stream ended exactly on a block boundary (or
// nothing was consumed since the last report), so it is idempotent.
func (a *Accountant) Finish() int {
	if a.since > 0 {
		a.since = 0
		return 1
	}
	return 0
}

// BlocksFor returns the simulated block reads a one-shot read of n bytes
// charges: ceil(n / BlockSize), with 0 bytes charging 0 blocks.
func BlocksFor(n int64) int {
	var a Accountant
	return a.Add(n) + a.Finish()
}
