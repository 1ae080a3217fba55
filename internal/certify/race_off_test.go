//go:build !race

package certify

// raceEnabled reports whether the race detector instruments this build;
// the slowest oracle cases skip it.
const raceEnabled = false
