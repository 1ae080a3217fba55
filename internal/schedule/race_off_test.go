//go:build !race

package schedule

// raceEnabled reports whether the race detector instruments this build.
// The allocation gate consults it: race instrumentation allocates per
// instrumented operation, so AllocsPerRun is meaningless under -race.
const raceEnabled = false
