//go:build race

package schedule

// See race_off_test.go.
const raceEnabled = true
