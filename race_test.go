//go:build race

package timeprints_test

// raceEnabled reports a -race build, whose instrumentation slows the
// solver about 14x; long searches check a prefix of their work.
const raceEnabled = true
