//go:build race

package vector

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a random share of the values put into it.
const raceEnabled = true
