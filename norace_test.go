//go:build !race

package timeprints_test

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
