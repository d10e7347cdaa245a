//go:build !race

package cc

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
