//go:build race

package certify

// See race_off_test.go.
const raceEnabled = true
