//go:build race

package pathmatrix

// raceEnabled reports whether the race detector is on.
const raceEnabled = true
