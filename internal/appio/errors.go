package appio

import (
	"math"

	"ftsched/internal/model"
)

// maxDecodedTime bounds every time value accepted from storage (~1.1e12
// ticks). model.Time is an int64, but the dispatcher sums durations and
// recovery overheads along a schedule; bounding each decoded value keeps
// any realistic sum far from overflow, so a hostile file cannot wrap the
// clock. Real inputs are periods and execution times in the thousands.
const maxDecodedTime = model.Time(1) << 40

// DecodeError is the typed error every tree/counterexample decode failure
// surfaces as: a JSON-ish path to the offending position, a description,
// and (for syntax errors) the underlying encoding/json error. The fuzz
// targets assert that malformed inputs always land here — never in a
// panic.
type DecodeError struct {
	// Path locates the offending value, e.g. "nodes[3].arcs[1].lo";
	// empty for file-level problems (syntax errors, format mismatches).
	Path string
	// Msg describes the violation.
	Msg string
	// Err is the underlying cause, if any.
	Err error
}

// Error implements error.
func (e *DecodeError) Error() string {
	s := "appio: "
	if e.Path != "" {
		s += e.Path + ": "
	}
	s += e.Msg
	if e.Err != nil {
		if e.Msg != "" {
			s += ": "
		}
		s += e.Err.Error()
	}
	return s
}

// Unwrap returns the underlying cause.
func (e *DecodeError) Unwrap() error { return e.Err }

// checkDecodedTime rejects negative or overflowing time values with a
// position-carrying error. (NaN cannot reach a model.Time through JSON —
// int64 fields reject non-integer tokens — but float64 gains are checked
// separately with checkDecodedGain.)
func checkDecodedTime(path string, v model.Time) *DecodeError {
	if v < 0 {
		return &DecodeError{Path: path, Msg: "negative time"}
	}
	if v > maxDecodedTime {
		return &DecodeError{Path: path, Msg: "time overflows the accepted range"}
	}
	return nil
}

// checkDecodedGain rejects NaN and infinite gains, which would poison the
// gain-descending canonical arc order.
func checkDecodedGain(path string, v float64) *DecodeError {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return &DecodeError{Path: path, Msg: "gain is not a finite number"}
	}
	return nil
}

// checkDecodedSpeed rejects NaN, infinite, zero and negative core speed
// factors: the analysis divides by the speed, so any of them would poison
// every scaled duration.
func checkDecodedSpeed(path string, v float64) *DecodeError {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return &DecodeError{Path: path, Msg: "speed is not a finite number"}
	}
	if v <= 0 {
		return &DecodeError{Path: path, Msg: "speed must be positive"}
	}
	return nil
}

// checkDecodedPower rejects NaN, infinite and negative power parameters.
func checkDecodedPower(path string, v float64) *DecodeError {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return &DecodeError{Path: path, Msg: "power is not a finite number"}
	}
	if v < 0 {
		return &DecodeError{Path: path, Msg: "power must be non-negative"}
	}
	return nil
}
