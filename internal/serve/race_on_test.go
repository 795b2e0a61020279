//go:build race

package serve

// The race detector slows single-goroutine tests tenfold and checks
// nothing in them, so the converter's differential test runs fewer
// patterns under it (make serve-race runs the package ten times).
const raceEnabled = true
