package model

import "fmt"

// RecoveryKind selects how a failed execution attempt is recovered.
type RecoveryKind uint8

const (
	// RecoverReExecution is the paper's model: a failed attempt is
	// re-executed from scratch after the recovery overhead µ (the
	// application default or a per-process override). The zero value, and
	// the canonical model everywhere.
	RecoverReExecution RecoveryKind = iota
	// RecoverRestart models full-node restart (Abdi et al.,
	// arXiv:1705.02412): a fault restarts the whole process after a fixed
	// node-restart latency, independent of how far the attempt got. It is
	// re-execution with the global restart latency in place of µ.
	RecoverRestart
	// RecoverCheckpoint models checkpoint-and-rollback (Persya & Nair,
	// arXiv:1001.3756): an attempt takes a checkpoint every Spacing time
	// units of execution (each costing Overhead), and a fault rolls back
	// only to the last checkpoint — after the Rollback cost, only the
	// final segment of the attempt is re-executed.
	RecoverCheckpoint
)

// String implements fmt.Stringer.
func (k RecoveryKind) String() string {
	switch k {
	case RecoverReExecution:
		return "re-execution"
	case RecoverRestart:
		return "restart"
	case RecoverCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("RecoveryKind(%d)", int(k))
	}
}

// RecoveryModel is a closed sum over the three classic recovery
// primitives. The zero value is canonical re-execution; Restart uses
// Latency only; Checkpoint uses Spacing/Overhead/Rollback only. Validate
// enforces exactly that, so an invalid mixture can never reach the
// schedulers.
//
// All fields are wall-clock Time units measured on the core the affected
// execution runs on (checkpointing instruments the attempt itself, so its
// segment geometry lives in scaled wall time).
type RecoveryModel struct {
	// Kind selects the recovery primitive.
	Kind RecoveryKind
	// Latency is the fixed node-restart latency (Restart only).
	Latency Time
	// Spacing is the execution time between checkpoints (Checkpoint only,
	// must be positive).
	Spacing Time
	// Overhead is the cost of taking one checkpoint (Checkpoint only,
	// must be smaller than Spacing — a checkpoint that costs as much as
	// the work it protects can never pay off, and the bound keeps
	// AttemptTime within 2× of the raw duration so decoded values cannot
	// overflow the clock).
	Overhead Time
	// Rollback is the cost of restoring the last checkpoint after a
	// fault (Checkpoint only).
	Rollback Time
}

// ReExecutionModel returns the canonical re-execution model.
func ReExecutionModel() RecoveryModel { return RecoveryModel{} }

// RestartModel returns a full-restart model with the given latency.
func RestartModel(latency Time) RecoveryModel {
	return RecoveryModel{Kind: RecoverRestart, Latency: latency}
}

// CheckpointModel returns a checkpoint-rollback model.
func CheckpointModel(spacing, overhead, rollback Time) RecoveryModel {
	return RecoveryModel{Kind: RecoverCheckpoint, Spacing: spacing, Overhead: overhead, Rollback: rollback}
}

// RecoveryError is the typed diagnostic RecoveryModel.Validate returns:
// the offending field and the violated constraint.
type RecoveryError struct {
	// Field names the offending RecoveryModel field ("Kind", "Latency",
	// "Spacing", "Overhead", "Rollback").
	Field string
	// Msg describes the violation.
	Msg string
}

// Error implements error.
func (e *RecoveryError) Error() string {
	return fmt.Sprintf("model: recovery %s: %s", e.Field, e.Msg)
}

// IsCanonical reports whether the model is the paper's re-execution
// default. Serialisation omits canonical models so pre-recovery documents
// round-trip byte-identically.
func (m RecoveryModel) IsCanonical() bool { return m == RecoveryModel{} }

// Validate checks the per-kind field constraints.
func (m RecoveryModel) Validate() error {
	zero := func(field string, v Time) *RecoveryError {
		if v != 0 {
			return &RecoveryError{Field: field, Msg: fmt.Sprintf("not used by the %s model (got %d)", m.Kind, v)}
		}
		return nil
	}
	switch m.Kind {
	case RecoverReExecution:
		for _, c := range []struct {
			field string
			v     Time
		}{{"Latency", m.Latency}, {"Spacing", m.Spacing}, {"Overhead", m.Overhead}, {"Rollback", m.Rollback}} {
			if err := zero(c.field, c.v); err != nil {
				return err
			}
		}
	case RecoverRestart:
		if m.Latency < 0 {
			return &RecoveryError{Field: "Latency", Msg: fmt.Sprintf("must be non-negative (got %d)", m.Latency)}
		}
		for _, c := range []struct {
			field string
			v     Time
		}{{"Spacing", m.Spacing}, {"Overhead", m.Overhead}, {"Rollback", m.Rollback}} {
			if err := zero(c.field, c.v); err != nil {
				return err
			}
		}
	case RecoverCheckpoint:
		if m.Spacing <= 0 {
			return &RecoveryError{Field: "Spacing", Msg: fmt.Sprintf("must be positive (got %d)", m.Spacing)}
		}
		if m.Overhead < 0 {
			return &RecoveryError{Field: "Overhead", Msg: fmt.Sprintf("must be non-negative (got %d)", m.Overhead)}
		}
		if m.Overhead >= m.Spacing {
			return &RecoveryError{Field: "Overhead", Msg: fmt.Sprintf("must be smaller than Spacing %d (got %d)", m.Spacing, m.Overhead)}
		}
		if m.Rollback < 0 {
			return &RecoveryError{Field: "Rollback", Msg: fmt.Sprintf("must be non-negative (got %d)", m.Rollback)}
		}
		if err := zero("Latency", m.Latency); err != nil {
			return err
		}
	default:
		return &RecoveryError{Field: "Kind", Msg: fmt.Sprintf("unknown recovery kind %d", int(m.Kind))}
	}
	return nil
}

// Checkpoints returns how many checkpoints an attempt executing for d time
// units takes: one every Spacing units, none at completion (the result is
// the attempt's outcome, not a checkpoint). Zero for non-checkpoint models.
func (m RecoveryModel) Checkpoints(d Time) Time {
	if m.Kind != RecoverCheckpoint || d <= 0 {
		return 0
	}
	return (d - 1) / m.Spacing // ceil(d/Spacing) - 1
}

// AttemptTime converts an execution duration into the wall-clock time of
// one fault-free attempt: the duration plus the checkpoint overheads taken
// along the way. Identity for re-execution and restart.
func (m RecoveryModel) AttemptTime(d Time) Time {
	return d + m.Checkpoints(d)*m.Overhead
}

// ResumeTime returns the execution re-run after a fault hit an attempt of
// duration d: the full duration for re-execution and restart (all progress
// is lost), and only the final segment after the last checkpoint for the
// checkpoint model. The final segment contains no further checkpoints, so
// every subsequent fault re-runs the same segment.
func (m RecoveryModel) ResumeTime(d Time) Time {
	return d - m.Checkpoints(d)*m.Spacing
}

// WorstResumeTime bounds ResumeTime over every duration in [0, d]: d
// itself for re-execution and restart, min(Spacing, d) for checkpoints
// (a final segment never exceeds the spacing). Static analysis uses this
// worst-case-within-segment bound; simulation uses the sampled duration's
// exact ResumeTime.
func (m RecoveryModel) WorstResumeTime(d Time) Time {
	if m.Kind != RecoverCheckpoint {
		return d
	}
	if d > m.Spacing {
		return m.Spacing
	}
	return d
}

// String summarises the model.
func (m RecoveryModel) String() string {
	switch m.Kind {
	case RecoverReExecution:
		return "re-execution"
	case RecoverRestart:
		return fmt.Sprintf("restart(latency=%d)", m.Latency)
	case RecoverCheckpoint:
		return fmt.Sprintf("checkpoint(spacing=%d, overhead=%d, rollback=%d)", m.Spacing, m.Overhead, m.Rollback)
	default:
		return m.Kind.String()
	}
}
