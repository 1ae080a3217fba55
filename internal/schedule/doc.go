// Package schedule implements fault-tolerant static schedules
// ("f-schedules") with shared recovery slack, as introduced in §3 of
// Izosimov et al. (DATE 2008) and inherited from their DATE 2005 paper [7].
//
// An f-schedule is an ordering of (a subset of) the application's processes
// on the single computation node. Execution is non-preemptive, so the
// ordering plus per-process recovery counts describe the schedule
// completely: each process starts when its predecessor entry finishes, and
// completion times are prefix sums over the ordering. Each scheduled
// process P_i carries a recovery count f_i: the number of re-executions the
// schedule's recovery slack can accommodate for P_i. Hard processes always
// carry f_i = k; soft processes carry whatever number of re-executions
// proved both schedulable and beneficial. Soft processes that are not
// scheduled at all are dropped: they produce no utility (α = 0) and their
// successors consume stale values (see package utility).
//
// The ordering must respect the application's polar DAG: a process may only
// appear after all of its scheduled predecessors, and FSchedule.Validate
// rejects anything else.
//
// The recovery slack is shared: the schedule does not reserve
// (wcet_i + µ)·f_i after every process, but only enough slack so that the
// worst allocation of the k transient faults among the scheduled prefix is
// covered. Consequently the worst-case completion of the i-th entry is
//
//	WCC(i) = Σ_{j ≤ i} wcet_j  +  max { Σ_j n_j·(wcet_j + µ_j) :
//	                                    0 ≤ n_j ≤ f_j, Σ_j n_j ≤ k }
//
// which this package evaluates greedily (faults go to the largest
// wcet_j + µ_j first). Equivalently, with every entry contributing
// min(f_j, k) recovery units of cost c_j = wcet_j + µ_j (in general
// model.Application.WorstRecoveryCost: the per-fault overhead plus the
// longest re-run under the recovery model and platform),
//
//	WCC(i) = M(i) + Σ top_k { c_j repeated min(f_j, k) times : j ≤ i }
//
// where M(i) is the no-fault makespan of entries 0..i and top_k sums the
// k largest units. Times are integers, so this top-k sum equals the greedy
// allocation exactly.
//
// Prefix is the one statement of this bound. It carries, for a list
// prefix, the no-fault WCET timeline (makespan, per-core ready times and,
// on a mapped platform, the finishes cross-core successors wait for), the
// k largest units with their sum, and the first violated constraint. Its
// invariant: after extending entries 0..i in order, WorstCase() is WCC(i)
// and Err() is the CheckSchedulable verdict of entries 0..i. Extending
// takes O(k + |preds|) and copying O(k + cores) (plus the n finish times
// on a mapped platform), and neither allocates once the Prefix is sized,
// so list schedulers check a candidate as a copy of the placed prefix plus
// the candidate's own entries. WorstCaseCompletions, CheckSchedulable and
// Schedulable are single walks over a Prefix.
package schedule
