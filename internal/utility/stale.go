package utility

// StaleStatus describes how a process terminated in a given scenario, for
// the purpose of stale-value accounting.
type StaleStatus int

const (
	// Executed means the process ran to completion in this cycle.
	Executed StaleStatus = iota
	// Dropped means the process was not started (or its recovery was
	// abandoned after a fault); successors consume stale inputs and its
	// own utility is zero (α = 0).
	Dropped
)

// CoefficientsInto computes the stale-value coefficients α_i for every
// process into alpha, given the predecessor lists and the per-process
// execution status. It neither validates nor allocates.
//
// preds[i] lists the direct predecessors DP(P_i) of process i; order is the
// order in which coefficients are evaluated and must be a topological order
// of the process indices that visits each exactly once (package model
// establishes this in Validate and passes its own tables). alpha, status
// and preds are indexed by process.
//
// Per the paper (§2.1):
//
//	α_i = 0                                        if P_i is dropped
//	α_i = (1 + Σ_{j ∈ DP(i)} α_j) / (1 + |DP(i)|)  if P_i executed
//
// A process with no predecessors that executes has α = 1. The result is
// always within [0, 1].
func CoefficientsInto[I ~int](alpha []float64, order []I, preds [][]I, status []StaleStatus) {
	for _, i := range order {
		if status[i] == Dropped {
			alpha[i] = 0
			continue
		}
		sum := 1.0
		for _, j := range preds[i] {
			sum += alpha[j]
		}
		alpha[i] = sum / float64(1+len(preds[i]))
	}
}
