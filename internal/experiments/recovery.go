package experiments

import (
	"errors"
	"fmt"
	"strings"

	"ftsched/internal/apps"
	"ftsched/internal/core"
	"ftsched/internal/model"
)

// RecoveryRow is one (application, recovery model) evaluation.
type RecoveryRow struct {
	App string
	// Model names the recovery model variant ("reexec", "restart",
	// "checkpoint"); Params is its rendered parameter list.
	Model  string
	Params string
	// Schedulable reports whether FTSS found a fault-tolerant schedule
	// under this model; a false row carries no evaluation numbers. A model
	// with heavier worst-case recovery than the paper's re-execution can
	// push a tight application over its deadlines — that is a result of the
	// study, not an error.
	Schedulable bool
	// Utility is the mean Monte-Carlo utility under the configured fault
	// injection; Faults echoes the clamped per-application count.
	Utility float64
	Faults  int
	// MeanEnergy is the mean per-cycle platform energy over the same
	// scenarios (checkpoint overheads count as active time).
	MeanEnergy float64
	// MeanRecoveries is the mean number of recoveries actually taken.
	MeanRecoveries float64
	// CertifiedK is the largest fault count in [1, k] for which the
	// exhaustive certification engine proves every hard deadline, or 0 if
	// only the fault-free nominal is guaranteed.
	CertifiedK int
}

// RecoveryResult aggregates the study.
type RecoveryResult struct {
	Rows []RecoveryRow
	Cfg  WorkloadConfig
}

// StudyModels derives the three recovery models the study compares for one
// application, deterministically from its own parameters:
//
//   - reexec: the paper's canonical model (per-fault overhead µ);
//   - restart: a full restart costing twice µ — a node reboot is slower
//     than the paper's warm re-execution;
//   - checkpoint: segments of half the largest WCET (so every long process
//     takes at least one checkpoint), per-checkpoint overhead of at most
//     µ/2, rollback cost µ — recovery re-runs only the last segment.
func StudyModels(app *model.Application) []struct {
	Name  string
	Model model.RecoveryModel
} {
	mu := app.Mu()
	if mu <= 0 {
		mu = 1
	}
	var maxWCET model.Time
	for id := 0; id < app.N(); id++ {
		if w := app.Proc(model.ProcessID(id)).WCET; w > maxWCET {
			maxWCET = w
		}
	}
	spacing := maxWCET/2 + 1
	overhead := mu / 2
	if overhead >= spacing {
		overhead = spacing - 1
	}
	return []struct {
		Name  string
		Model model.RecoveryModel
	}{
		{"reexec", model.ReExecutionModel()},
		{"restart", model.RestartModel(2 * mu)},
		{"checkpoint", model.CheckpointModel(spacing, overhead, mu)},
	}
}

// Recovery runs the recovery-model study, answering "what do utility,
// energy and the certified fault bound look like when the same application
// recovers by full restart or by checkpoint-and-rollback instead?" (the
// paper recovers exclusively by re-execution with overhead µ). Each
// workload — the Fig. 1 and Fig. 8 fixtures, then the generated
// applications — is synthesised and evaluated once per recovery model of
// StudyModels through the same FTQS pipeline and compiled dispatcher.
func Recovery(cfg WorkloadConfig) (*RecoveryResult, error) {
	loads, err := cfg.workloads(
		workload{"paper-fig1", apps.Fig1()},
		workload{"paper-fig8", apps.Fig8()},
	)
	if err != nil {
		return nil, err
	}
	res := &RecoveryResult{Cfg: cfg}
	for _, wl := range loads {
		seed := cfg.Seed + int64(len(res.Rows))
		for _, sm := range StudyModels(wl.app) {
			app := wl.app
			if !sm.Model.IsCanonical() {
				var err error
				app, err = app.WithRecovery(sm.Model)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s under %s: %w", wl.name, sm.Name, err)
				}
			}
			row, err := recoveryRow(wl.name, sm.Name, app, cfg, seed)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s under %s: %w", wl.name, sm.Name, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func recoveryRow(name, modelName string, app *model.Application, cfg WorkloadConfig, seed int64) (RecoveryRow, error) {
	params := fmt.Sprintf("µ=%d", app.Mu())
	if app.HasRecovery() {
		params = app.Recovery().String()
	}
	ev, err := cfg.evaluate(app, seed)
	if errors.Is(err, core.ErrUnschedulable) {
		return RecoveryRow{App: name, Model: modelName, Params: params}, nil
	}
	if err != nil {
		return RecoveryRow{}, err
	}
	st := ev.stats
	return RecoveryRow{
		App: name, Model: modelName, Params: params,
		Schedulable: true,
		Utility:     st.MeanUtility, Faults: ev.faults,
		MeanEnergy:     st.MeanEnergy,
		MeanRecoveries: st.MeanRecoveries,
		CertifiedK:     ev.certK,
	}, nil
}

// Format renders the study.
func (r *RecoveryResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Recovery models — re-execution vs restart vs checkpoint-rollback\n")
	sb.WriteString("(same FTQS pipeline and compiled dispatcher per model; restart pays 2µ per fault,\n")
	sb.WriteString(" checkpointing pays per-segment overheads up front but re-runs only the last segment)\n")
	sb.WriteString("app           model        params                                             flt   utility     energy    recov   cert-k\n")
	for _, row := range r.Rows {
		if !row.Schedulable {
			fmt.Fprintf(&sb, "%-13s %-10s   %-47s  unschedulable under this model\n",
				row.App, row.Model, row.Params)
			continue
		}
		fmt.Fprintf(&sb, "%-13s %-10s   %-47s  %3d   %7.2f   %8.1f   %6.2f   %6d\n",
			row.App, row.Model, row.Params, row.Faults,
			row.Utility, row.MeanEnergy, row.MeanRecoveries, row.CertifiedK)
	}
	return sb.String()
}
