package appio

import (
	"fmt"
	"strconv"
	"strings"

	"ftsched/internal/model"
)

// jsonRecovery is the on-disk form of a recovery model, shared by the
// application JSON and the v4 compact tree encoding. The canonical
// re-execution model is never written (the field is omitted), so
// pre-recovery documents round-trip byte-identically.
type jsonRecovery struct {
	Model    string     `json:"model"` // "re-execution" | "restart" | "checkpoint"
	Latency  model.Time `json:"latency,omitempty"`
	Spacing  model.Time `json:"spacing,omitempty"`
	Overhead model.Time `json:"overhead,omitempty"`
	Rollback model.Time `json:"rollback,omitempty"`
}

// recoveryJSON converts a model to its on-disk form; nil for the canonical
// model (the caller omits the field).
func recoveryJSON(m model.RecoveryModel) *jsonRecovery {
	if m.IsCanonical() {
		return nil
	}
	return &jsonRecovery{
		Model:    m.Kind.String(),
		Latency:  m.Latency,
		Spacing:  m.Spacing,
		Overhead: m.Overhead,
		Rollback: m.Rollback,
	}
}

// decodeRecovery validates and builds a recovery model from its on-disk
// form. A nil jr is the canonical model. Every time value runs through the
// decoded-time bounds (negative and overflow-scale values are rejected
// before any arithmetic can wrap), and the assembled model runs through
// model.RecoveryModel.Validate; all failures are *DecodeError values
// naming the offending field under path.
func decodeRecovery(path string, jr *jsonRecovery) (model.RecoveryModel, error) {
	if jr == nil {
		return model.ReExecutionModel(), nil
	}
	var m model.RecoveryModel
	switch jr.Model {
	case "re-execution":
		m.Kind = model.RecoverReExecution
	case "restart":
		m.Kind = model.RecoverRestart
	case "checkpoint":
		m.Kind = model.RecoverCheckpoint
	default:
		return m, &DecodeError{Path: path + ".model", Msg: fmt.Sprintf("unknown recovery model %q", jr.Model)}
	}
	for _, f := range []struct {
		name string
		v    model.Time
		dst  *model.Time
	}{
		{"latency", jr.Latency, &m.Latency},
		{"spacing", jr.Spacing, &m.Spacing},
		{"overhead", jr.Overhead, &m.Overhead},
		{"rollback", jr.Rollback, &m.Rollback},
	} {
		if derr := checkDecodedTime(path+"."+f.name, f.v); derr != nil {
			return model.RecoveryModel{}, derr
		}
		*f.dst = f.v
	}
	if err := m.Validate(); err != nil {
		return model.RecoveryModel{}, &DecodeError{Path: path, Err: err}
	}
	return m, nil
}

// applyRecovery attaches a decoded recovery model to a validated
// application; the canonical model leaves the application untouched.
func applyRecovery(app *model.Application, jr *jsonRecovery) (*model.Application, error) {
	m, err := decodeRecovery("recovery", jr)
	if err != nil {
		return nil, err
	}
	if m.IsCanonical() {
		return app, nil
	}
	withRec, err := app.WithRecovery(m)
	if err != nil {
		return nil, &DecodeError{Path: "recovery", Err: err}
	}
	return withRec, nil
}

// ParseRecoverySpec parses a command-line recovery-model description:
//
//	reexec                              the paper's re-execution with µ
//	restart:LATENCY                     full restart after a fixed latency
//	checkpoint:SPACING:OVERHEAD:ROLLBACK  checkpoint-and-rollback
//
// e.g. "restart:25" or "checkpoint:40:3:7". Values run through the same
// typed validation as decoded files, so negative, overflow-scale or
// inconsistent parameters yield a *DecodeError naming the offending field.
func ParseRecoverySpec(spec string) (model.RecoveryModel, error) {
	fields := strings.Split(strings.TrimSpace(spec), ":")
	kind := strings.TrimSpace(fields[0])
	num := func(field, s string) (model.Time, *DecodeError) {
		v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return 0, &DecodeError{Path: "recovery." + field, Msg: fmt.Sprintf("not an integer: %q", s)}
		}
		return model.Time(v), nil
	}
	jr := &jsonRecovery{}
	switch kind {
	case "", "reexec", "re-execution":
		if len(fields) != 1 {
			return model.RecoveryModel{}, &DecodeError{Path: "recovery", Msg: fmt.Sprintf("want reexec (got %q)", spec)}
		}
		return model.ReExecutionModel(), nil
	case "restart":
		if len(fields) != 2 {
			return model.RecoveryModel{}, &DecodeError{Path: "recovery", Msg: fmt.Sprintf("want restart:LATENCY (got %q)", spec)}
		}
		jr.Model = "restart"
		v, derr := num("latency", fields[1])
		if derr != nil {
			return model.RecoveryModel{}, derr
		}
		jr.Latency = v
	case "checkpoint":
		if len(fields) != 4 {
			return model.RecoveryModel{}, &DecodeError{Path: "recovery", Msg: fmt.Sprintf("want checkpoint:SPACING:OVERHEAD:ROLLBACK (got %q)", spec)}
		}
		jr.Model = "checkpoint"
		for i, f := range []struct {
			name string
			dst  *model.Time
		}{{"spacing", &jr.Spacing}, {"overhead", &jr.Overhead}, {"rollback", &jr.Rollback}} {
			v, derr := num(f.name, fields[i+1])
			if derr != nil {
				return model.RecoveryModel{}, derr
			}
			*f.dst = v
		}
	default:
		return model.RecoveryModel{}, &DecodeError{Path: "recovery", Msg: fmt.Sprintf("unknown recovery model %q (want reexec, restart or checkpoint)", kind)}
	}
	return decodeRecovery("recovery", jr)
}
