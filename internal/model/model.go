// Package model defines the application model of Izosimov et al.
// (DATE 2008), Section 2: a set of directed, acyclic, polar process graphs
// mapped to a single computation node.
//
// Each process P_i has a best-case execution time (BCET) t_i^b, an
// average-case execution time (AET) t_i^e and a worst-case execution time
// (WCET) t_i^w; communication time is folded into the execution times.
// Processes are non-preemptable. A process is either hard — it carries an
// individual deadline d_i that must be met in every scenario including the
// worst-case fault scenario — or soft, in which case it carries a
// non-increasing time/utility function U_i(t) and may be dropped.
//
// The application tolerates at most K transient faults per operation cycle,
// recovering by re-execution with a recovery overhead µ (a global default
// that can be overridden per process, as in the cruise-controller case study
// where µ is 10% of each process's WCET).
package model

import (
	"errors"
	"fmt"
	"sync"

	"ftsched/internal/utility"
)

// Time is the discrete time base (milliseconds); see utility.Time.
type Time = utility.Time

// ProcessID identifies a process within its Application. IDs are dense
// indices in [0, N). After Validate, IDs are guaranteed to be stable; the
// topological order is available separately via Topo.
type ProcessID int

// NoProcess is the sentinel for "no process".
const NoProcess ProcessID = -1

// Kind classifies a process as hard or soft real-time.
type Kind int

const (
	// Hard processes carry deadlines that must be guaranteed under any
	// combination of up to K faults.
	Hard Kind = iota
	// Soft processes carry time/utility functions and may be dropped.
	Soft
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Hard:
		return "hard"
	case Soft:
		return "soft"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Process is one node of the application graph.
type Process struct {
	// Name is a human-readable identifier, unique within the application.
	Name string
	// Kind selects hard or soft semantics.
	Kind Kind
	// BCET <= AET <= WCET are the execution-time bounds, in Time units.
	// WCET must be positive.
	BCET, AET, WCET Time
	// Deadline is the individual hard deadline d_i; required for hard
	// processes, ignored for soft ones.
	Deadline Time
	// Utility is the time/utility function U_i(t); required for soft
	// processes, ignored for hard ones.
	Utility utility.Function
	// Mu overrides the application-wide recovery overhead for this
	// process when positive (used by the cruise-controller case study,
	// where µ is 10% of each WCET). Zero means "use the application µ"
	// unless MuExplicit is set.
	Mu Time
	// MuExplicit marks Mu as an explicit override even when it is zero,
	// so a genuine zero-overhead recovery is expressible. Without it the
	// legacy convention applies: Mu > 0 overrides, Mu == 0 inherits.
	MuExplicit bool
	// Release is the earliest start time of the process. It is zero for
	// ordinary applications and j·T_G for the j-th hyper-period instance
	// of a process from a graph with period T_G (see Merge).
	Release Time
}

// Application is a validated, topologically analysed process graph together
// with the platform/fault parameters of the model.
//
// Build one with NewApplication, AddProcess and AddEdge, then call Validate
// before handing it to the schedulers. All accessor methods after Validate
// are read-only; Application values are safe for concurrent readers.
type Application struct {
	name   string
	period Time
	k      int
	mu     Time

	procs []Process
	succ  [][]ProcessID
	pred  [][]ProcessID

	// platform and the mapping slices are nil for the canonical
	// single-core model; see WithPlatform.
	platform *Platform
	primCore []CoreID
	recCore  []CoreID

	// recovery is the fault-recovery model; the zero value is the paper's
	// re-execution-with-µ. See WithRecovery.
	recovery RecoveryModel

	validated bool
	topo      []ProcessID

	// timings caches Timings, built on first use after Validate. The With*
	// constructors set every field of their copy before returning it, so
	// no caller sees rows of a half-built copy.
	timingsOnce sync.Once
	timings     []Timing
}

// canonicalPlatform backs Platform() for applications without an explicit
// platform, so callers never see nil.
var canonicalPlatform = SingleCore()

// NewApplication creates an empty application.
//
// period is the operation cycle T of the application (all schedules must
// complete within it, even in the worst-case fault scenario); k is the
// maximum number of transient faults per cycle; mu is the default recovery
// overhead µ.
func NewApplication(name string, period Time, k int, mu Time) *Application {
	return &Application{name: name, period: period, k: k, mu: mu}
}

// AddProcess appends a process and returns its ID. It must be called before
// Validate.
func (a *Application) AddProcess(p Process) ProcessID {
	a.mustBeMutable()
	a.procs = append(a.procs, p)
	a.succ = append(a.succ, nil)
	a.pred = append(a.pred, nil)
	return ProcessID(len(a.procs) - 1)
}

// AddEdge records a data dependency from -> to: the output of from is an
// input of to, so to cannot start before from has terminated (or been
// dropped, in which case to consumes a stale value).
func (a *Application) AddEdge(from, to ProcessID) error {
	a.mustBeMutable()
	if err := a.checkID(from); err != nil {
		return err
	}
	if err := a.checkID(to); err != nil {
		return err
	}
	if from == to {
		return fmt.Errorf("model: self-loop on %s", a.procs[from].Name)
	}
	for _, s := range a.succ[from] {
		if s == to {
			return fmt.Errorf("model: duplicate edge %s -> %s", a.procs[from].Name, a.procs[to].Name)
		}
	}
	a.succ[from] = append(a.succ[from], to)
	a.pred[to] = append(a.pred[to], from)
	return nil
}

// MustAddEdge is AddEdge that panics on error; intended for statically-known
// fixtures.
func (a *Application) MustAddEdge(from, to ProcessID) {
	if err := a.AddEdge(from, to); err != nil {
		panic(err)
	}
}

func (a *Application) mustBeMutable() {
	if a.validated {
		panic("model: application mutated after Validate")
	}
}

// mustID panics with checkID's error when id is out of range. It is
// small enough to inline into the accessors, so only a failing id pays
// for building the error.
func (a *Application) mustID(id ProcessID) {
	if uint(id) >= uint(len(a.procs)) {
		panic(a.checkID(id))
	}
}

func (a *Application) checkID(id ProcessID) error {
	if id < 0 || int(id) >= len(a.procs) {
		return fmt.Errorf("model: process id %d out of range [0,%d)", id, len(a.procs))
	}
	return nil
}

// Validate checks the structural and numeric invariants of the model and
// freezes the application:
//
//   - at least one process; period, µ > 0; K >= 0
//   - 0 <= BCET <= AET <= WCET, WCET > 0, for every process
//   - hard processes have a positive deadline; soft processes have a
//     utility function
//   - names are unique and non-empty
//   - the graph is acyclic
//
// On success the topological order is computed and the application becomes
// immutable.
func (a *Application) Validate() error {
	if a.validated {
		return nil
	}
	if len(a.procs) == 0 {
		return errors.New("model: application has no processes")
	}
	if a.period <= 0 {
		return fmt.Errorf("model: period must be positive (got %d)", a.period)
	}
	if a.k < 0 {
		return fmt.Errorf("model: fault bound k must be non-negative (got %d)", a.k)
	}
	if a.mu < 0 {
		return fmt.Errorf("model: recovery overhead µ must be non-negative (got %d)", a.mu)
	}
	names := make(map[string]bool, len(a.procs))
	for id, p := range a.procs {
		if p.Name == "" {
			return fmt.Errorf("model: process %d has an empty name", id)
		}
		if names[p.Name] {
			return fmt.Errorf("model: duplicate process name %q", p.Name)
		}
		names[p.Name] = true
		if p.WCET <= 0 {
			return fmt.Errorf("model: %s: WCET must be positive (got %d)", p.Name, p.WCET)
		}
		if p.BCET < 0 || p.BCET > p.AET || p.AET > p.WCET {
			return fmt.Errorf("model: %s: need 0 <= BCET <= AET <= WCET (got %d, %d, %d)",
				p.Name, p.BCET, p.AET, p.WCET)
		}
		if p.Mu < 0 {
			return &ProcessMuError{Process: p.Name, Mu: p.Mu, Explicit: p.MuExplicit}
		}
		if p.Release < 0 {
			return fmt.Errorf("model: %s: release must be non-negative (got %d)", p.Name, p.Release)
		}
		switch p.Kind {
		case Hard:
			if p.Deadline <= 0 {
				return fmt.Errorf("model: hard process %s needs a positive deadline", p.Name)
			}
		case Soft:
			if p.Utility == nil {
				return fmt.Errorf("model: soft process %s needs a utility function", p.Name)
			}
		default:
			return fmt.Errorf("model: %s: unknown kind %d", p.Name, p.Kind)
		}
	}
	topo, err := a.topoSort()
	if err != nil {
		return err
	}
	a.topo = topo
	a.validated = true
	return nil
}

// topoSort runs Kahn's algorithm, detecting cycles. Among ready nodes the
// smallest ID is taken first so the order is deterministic.
func (a *Application) topoSort() ([]ProcessID, error) {
	n := len(a.procs)
	indeg := make([]int, n)
	for id := range a.procs {
		indeg[id] = len(a.pred[id])
	}
	// A simple ordered ready set; n is small (tens of processes).
	var ready []ProcessID
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			ready = append(ready, ProcessID(id))
		}
	}
	order := make([]ProcessID, 0, n)
	for len(ready) > 0 {
		// Pick the smallest ID for determinism.
		best := 0
		for i := 1; i < len(ready); i++ {
			if ready[i] < ready[best] {
				best = i
			}
		}
		id := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		order = append(order, id)
		for _, s := range a.succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(order) != n {
		return nil, errors.New("model: process graph has a cycle")
	}
	return order, nil
}

func (a *Application) mustBeValidated() {
	if !a.validated {
		panic("model: application used before Validate")
	}
}

// Name returns the application name.
func (a *Application) Name() string { return a.name }

// Period returns the operation cycle T.
func (a *Application) Period() Time { return a.period }

// K returns the maximum number of transient faults per cycle.
func (a *Application) K() int { return a.k }

// Mu returns the default recovery overhead µ.
func (a *Application) Mu() Time { return a.mu }

// N returns the number of processes.
func (a *Application) N() int { return len(a.procs) }

// Proc returns (a copy of) the process with the given ID.
func (a *Application) Proc(id ProcessID) Process {
	a.mustID(id)
	return a.procs[id]
}

// ProcRef returns the process with the given ID in place: Proc without
// the copy, for analysis loops that read a field or two per call. The
// process belongs to the application and must not be modified.
func (a *Application) ProcRef(id ProcessID) *Process {
	a.mustID(id)
	return &a.procs[id]
}

// ProcessMuError is the typed Validate diagnostic for an invalid
// per-process recovery overhead override.
type ProcessMuError struct {
	// Process is the offending process name.
	Process string
	// Mu is the rejected value.
	Mu Time
	// Explicit reports whether the override was marked MuExplicit.
	Explicit bool
}

// Error implements error.
func (e *ProcessMuError) Error() string {
	return fmt.Sprintf("model: %s: per-process µ must be non-negative (got %d)", e.Process, e.Mu)
}

// MuOf returns the effective recovery overhead of a process: its own Mu
// when the override is in effect (MuExplicit, or positive under the legacy
// convention), the application default otherwise. A MuExplicit zero is a
// genuine zero-overhead recovery.
func (a *Application) MuOf(id ProcessID) Time {
	p := a.ProcRef(id)
	if p.MuExplicit || p.Mu > 0 {
		return p.Mu
	}
	return a.mu
}

// UtilityOf returns the utility function of a process; hard processes (and
// soft processes without a function, which Validate rejects) yield
// utility.Zero.
func (a *Application) UtilityOf(id ProcessID) utility.Function {
	p := a.ProcRef(id)
	if p.Kind == Soft && p.Utility != nil {
		return p.Utility
	}
	return utility.Zero{}
}

// Succs returns the direct successors of id. The returned slice must not be
// modified.
func (a *Application) Succs(id ProcessID) []ProcessID {
	a.mustID(id)
	return a.succ[id]
}

// Preds returns the direct predecessors DP(P_id). The returned slice must
// not be modified.
func (a *Application) Preds(id ProcessID) []ProcessID {
	a.mustID(id)
	return a.pred[id]
}

// Topo returns a topological order of the process IDs. The returned slice
// must not be modified.
func (a *Application) Topo() []ProcessID {
	a.mustBeValidated()
	return a.topo
}

// HardIDs returns the IDs of all hard processes, in ID order.
func (a *Application) HardIDs() []ProcessID {
	var out []ProcessID
	for id := range a.procs {
		if a.procs[id].Kind == Hard {
			out = append(out, ProcessID(id))
		}
	}
	return out
}

// SoftIDs returns the IDs of all soft processes, in ID order.
func (a *Application) SoftIDs() []ProcessID {
	var out []ProcessID
	for id := range a.procs {
		if a.procs[id].Kind == Soft {
			out = append(out, ProcessID(id))
		}
	}
	return out
}

// StaleCoefficients computes the stale-value coefficients α (§2.1) of
// every process given its execution status, indexed by process ID. It is
// the one α recurrence of the schedulers, the runtime and the baselines:
// utility.CoefficientsInto over the topological order and predecessor
// lists Validate established, with no copy of either. The result is
// written into alpha when its capacity suffices, so callers with sized
// scratch allocate nothing; otherwise a new slice is returned. status
// must hold one entry per process.
func (a *Application) StaleCoefficients(alpha []float64, status []utility.StaleStatus) []float64 {
	a.mustBeValidated()
	n := len(a.procs)
	if cap(alpha) < n {
		alpha = make([]float64, n)
	}
	alpha = alpha[:n]
	utility.CoefficientsInto(alpha, a.topo, a.pred, status[:n])
	return alpha
}

// UpdateStaleCoefficients reruns the α recurrence of StaleCoefficients
// over order alone, reading every coefficient outside it from alpha as it
// stands. After the status of process p changes, order must list p and
// all its descendants in topological order: no other coefficient depends
// on p, and each listed one is recomputed exactly as StaleCoefficients
// would, from the same predecessor coefficients in the same order.
func (a *Application) UpdateStaleCoefficients(alpha []float64, order []ProcessID, status []utility.StaleStatus) {
	utility.CoefficientsInto(alpha, order, a.pred, status)
}

// WithFaults returns a copy of the (validated) application with a different
// fault bound k and default recovery overhead µ. Baseline schedulers use it
// to synthesise non-fault-tolerant schedules (k = 0) for the same workload.
// The platform and mapping, if any, carry over unchanged.
func (a *Application) WithFaults(k int, mu Time) (*Application, error) {
	a.mustBeValidated()
	cp := NewApplication(a.name, a.period, k, mu)
	for _, p := range a.procs {
		cp.AddProcess(p)
	}
	for id := range a.procs {
		for _, s := range a.succ[id] {
			if err := cp.AddEdge(ProcessID(id), s); err != nil {
				return nil, err
			}
		}
	}
	if err := cp.Validate(); err != nil {
		return nil, err
	}
	cp.platform = a.platform
	cp.primCore = a.primCore
	cp.recCore = a.recCore
	cp.recovery = a.recovery
	return cp, nil
}

// Recovery returns the application's fault-recovery model. Applications
// built without WithRecovery report the canonical re-execution model.
func (a *Application) Recovery() RecoveryModel { return a.recovery }

// HasRecovery reports whether a non-canonical recovery model was attached
// via WithRecovery. Serialisation uses it to keep canonical re-execution
// applications byte-identical to the pre-recovery format.
func (a *Application) HasRecovery() bool { return !a.recovery.IsCanonical() }

// WithRecovery returns a copy of the (validated) application using the
// given recovery model. The platform, mapping and fault parameters carry
// over unchanged; the model is validated with RecoveryModel.Validate.
func (a *Application) WithRecovery(m RecoveryModel) (*Application, error) {
	a.mustBeValidated()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cp, err := a.WithFaults(a.k, a.mu)
	if err != nil {
		return nil, err
	}
	cp.recovery = m
	return cp, nil
}

// RecoveryOverhead returns the fixed per-fault overhead paid before a
// process resumes after a fault: µ for re-execution, the restart latency
// for restart, and the rollback cost for checkpoints.
func (a *Application) RecoveryOverhead(id ProcessID) Time {
	switch a.recovery.Kind {
	case RecoverRestart:
		return a.recovery.Latency
	case RecoverCheckpoint:
		return a.recovery.Rollback
	default:
		return a.MuOf(id)
	}
}

// WorstRecoveryCost returns the worst-case wall-clock cost one fault on
// the process adds to the schedule: the per-fault overhead plus the
// longest possible re-run on RerunCoreOf. Re-execution and restart re-run
// the whole WCET; a checkpoint rollback re-runs at most one segment
// (min(Spacing, scaled WCET)).
func (a *Application) WorstRecoveryCost(id ProcessID) Time {
	rerun := a.Platform().Scale(a.RerunCoreOf(id), a.ProcRef(id).WCET)
	return a.recovery.WorstResumeTime(rerun) + a.RecoveryOverhead(id)
}

// Timing is one row of the worst-case analysis table: the constants of a
// process that the shared-slack analysis (package schedule) reads for
// every entry it extends.
type Timing struct {
	// Release and Deadline are the process's own; the analysis reads
	// Deadline only for a hard process.
	Release, Deadline Time
	// Attempt is a fault-free WCET attempt on the primary core: scaled by
	// the core's speed, then inflated by the recovery model's per-attempt
	// overheads.
	Attempt Time
	// Recovery is WorstRecoveryCost.
	Recovery Time
	// Core is the primary core.
	Core CoreID
	// Hard marks a hard process.
	Hard bool
}

// Timings returns the analysis rows of every process, indexed by ID. A
// validated application builds them once, on first use, and every later
// caller shares them, so a one-shot analysis pays nothing per process
// beyond the entries it reads. The rows must not be modified.
func (a *Application) Timings() []Timing {
	if !a.validated {
		return a.buildTimings() // still mutable: nothing to cache
	}
	a.timingsOnce.Do(func() { a.timings = a.buildTimings() })
	return a.timings
}

func (a *Application) buildTimings() []Timing {
	plat := a.Platform()
	rows := make([]Timing, len(a.procs))
	for id := range rows {
		pid := ProcessID(id)
		p := &a.procs[id]
		core := a.CoreOf(pid)
		rows[id] = Timing{
			Release:  p.Release,
			Deadline: p.Deadline,
			Attempt:  a.recovery.AttemptTime(plat.Scale(core, p.WCET)),
			Recovery: a.WorstRecoveryCost(pid),
			Core:     core,
			Hard:     p.Kind == Hard,
		}
	}
	return rows
}

// Platform returns the platform the application is mapped to. Applications
// built without WithPlatform report the canonical single-core platform.
func (a *Application) Platform() *Platform {
	if a.platform == nil {
		return canonicalPlatform
	}
	return a.platform
}

// HasPlatform reports whether an explicit platform was attached via
// WithPlatform. Serialisation uses it to keep canonical single-core
// applications byte-identical to the pre-platform format.
func (a *Application) HasPlatform() bool { return a.platform != nil }

// CoreOf returns the primary core of a process: the core its first
// execution attempt runs on. Core 0 without an explicit mapping.
func (a *Application) CoreOf(id ProcessID) CoreID {
	if a.primCore == nil {
		return 0
	}
	a.mustID(id)
	return a.primCore[id]
}

// RecoveryCoreOf returns the core re-executions of a process run on after
// a fault. Core 0 without an explicit mapping.
func (a *Application) RecoveryCoreOf(id ProcessID) CoreID {
	if a.recCore == nil {
		return 0
	}
	a.mustID(id)
	return a.recCore[id]
}

// RerunCoreOf returns the core a re-run of the process executes on after a
// fault: the primary core under checkpoint rollback, which restores
// core-local state, and the recovery core otherwise.
func (a *Application) RerunCoreOf(id ProcessID) CoreID {
	if a.recovery.Kind == RecoverCheckpoint {
		return a.CoreOf(id)
	}
	return a.RecoveryCoreOf(id)
}

// WithPlatform returns a copy of the (validated) application mapped onto
// the given platform. The mapping must assign every process a primary and
// a recovery core within the platform's core range; BiasedMapping builds
// the canonical one.
func (a *Application) WithPlatform(p *Platform, m Mapping) (*Application, error) {
	a.mustBeValidated()
	if p == nil {
		return nil, errors.New("model: WithPlatform needs a platform")
	}
	n := len(a.procs)
	if len(m.Primary) != n || len(m.Recovery) != n {
		return nil, fmt.Errorf("model: mapping covers %d/%d primaries and %d/%d recoveries",
			len(m.Primary), n, len(m.Recovery), n)
	}
	for id := 0; id < n; id++ {
		if c := m.Primary[id]; c < 0 || int(c) >= p.NCores() {
			return nil, fmt.Errorf("model: %s: primary core %d out of range [0,%d)",
				a.procs[id].Name, c, p.NCores())
		}
		if c := m.Recovery[id]; c < 0 || int(c) >= p.NCores() {
			return nil, fmt.Errorf("model: %s: recovery core %d out of range [0,%d)",
				a.procs[id].Name, c, p.NCores())
		}
	}
	cp, err := a.WithFaults(a.k, a.mu)
	if err != nil {
		return nil, err
	}
	cp.platform = p
	cp.primCore = append([]CoreID(nil), m.Primary...)
	cp.recCore = append([]CoreID(nil), m.Recovery...)
	return cp, nil
}

// IDByName returns the process with the given name, or NoProcess.
func (a *Application) IDByName(name string) ProcessID {
	for id := range a.procs {
		if a.procs[id].Name == name {
			return ProcessID(id)
		}
	}
	return NoProcess
}

// String summarises the application.
func (a *Application) String() string {
	return fmt.Sprintf("app %q: %d processes (%d hard, %d soft), T=%d, k=%d, µ=%d",
		a.name, len(a.procs), len(a.HardIDs()), len(a.SoftIDs()), a.period, a.k, a.mu)
}
