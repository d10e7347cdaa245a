//go:build race

package cc

// raceEnabled reports a -race build. The race detector hooks every call but
// has nothing to check in pure float arithmetic, so the exhaustive
// bit-equality sweeps shrink under it instead of running 6x slower.
const raceEnabled = true
