// Package utility implements the time/utility model of Izosimov et al.
// (DATE 2008), Section 2.1.
//
// Each soft process is assigned a utility function U_i(t): a non-increasing
// monotonic function of its completion time. The overall utility of an
// application is the sum of the individual utilities produced by its soft
// processes. Hard processes carry no utility function; they carry deadlines.
//
// The package also implements stale-value coefficients. When a soft process
// is dropped its successors consume "stale" inputs from the previous
// execution cycle; the degradation is captured by the coefficient
//
//	α_i = (1 + Σ_{j ∈ DP(i)} α_j) / (1 + |DP(i)|)
//
// where DP(i) is the set of direct predecessors of P_i in the application's
// polar DAG (see package model). The modified utility is
// U*_i(t) = α_i · U_i(t), and α_i = 0 for a dropped process.
// CoefficientsInto is the one implementation of this recurrence: the
// schedulers, the runtime and the baselines all reach it through
// model.(*Application).StaleCoefficients, which passes the application's
// validated topological order and predecessor lists as they are. Only the
// exact optimum in package optimal, an independent yardstick, restates it.
//
// Utility functions are immutable once built, so evaluating them from the
// concurrent FTQS synthesis workers (package core) requires no locking.
package utility
