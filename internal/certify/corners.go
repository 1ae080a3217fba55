package certify

import (
	"context"
	"sort"

	"ftsched/internal/model"
	"ftsched/internal/runtime"
)

// pathSig is the discrete behaviour signature bisection compares: two
// durations with equal signatures drove the dispatcher through the same
// switching decisions with the same outcome counts, so no guard or
// deadline boundary lies strictly between them (as observed at this probe
// resolution).
type pathSig struct {
	finalNode  int
	switches   int
	violations int
	completed  int
}

func sigOf(res *runtime.Result) pathSig {
	s := pathSig{
		finalNode:  res.FinalNode,
		switches:   res.Switches,
		violations: len(res.HardViolations),
	}
	for _, o := range res.Outcomes {
		if o == runtime.Completed {
			s.completed++
		}
	}
	return s
}

// prober runs zero-fault probe scenarios for corner bisection, reusing one
// scenario and result buffer.
type prober struct {
	d    *runtime.Dispatcher
	wcet []model.Time
	sc   runtime.Scenario
	res  runtime.Result
	runs int64
}

func newProber(d *runtime.Dispatcher, wcet []model.Time) *prober {
	p := &prober{d: d, wcet: wcet}
	p.sc.Durations = make([]model.Time, len(wcet))
	p.sc.FaultsAt = make([]int, len(wcet))
	return p
}

// probe executes one zero-fault scenario with process p at duration t and
// every other process at WCET, and returns the signature.
func (pr *prober) probe(p int, t model.Time) (pathSig, error) {
	copy(pr.sc.Durations, pr.wcet)
	pr.sc.Durations[p] = t
	if err := pr.d.RunInto(&pr.res, pr.sc); err != nil {
		return pathSig{}, err
	}
	pr.runs++
	return sigOf(&pr.res), nil
}

// cornerSets builds the per-process execution-time corner lists: BCET and
// WCET always, plus both sides of every behaviour change point bisection
// finds (up to maxBoundaries change points per process). Lists are sorted
// ascending and deduplicated; enumeration order is deterministic.
func cornerSets(ctx context.Context, d *runtime.Dispatcher, app *model.Application, b bounds, maxBoundaries int) ([][]model.Time, int64, error) {
	n := app.N()
	corners := make([][]model.Time, n)
	pr := newProber(d, b.wcet)
	rec := app.Recovery()
	for p := 0; p < n; p++ {
		if err := ctx.Err(); err != nil {
			return nil, pr.runs, err
		}
		bcet, wcet := b.bcet[p], b.wcet[p]
		set := []model.Time{bcet, wcet}
		if maxBoundaries > 0 && wcet > bcet {
			sLo, err := pr.probe(p, bcet)
			if err != nil {
				return nil, pr.runs, err
			}
			sHi, err := pr.probe(p, wcet)
			if err != nil {
				return nil, pr.runs, err
			}
			found := 0
			var bisect func(lo, hi model.Time, a, b pathSig) error
			bisect = func(lo, hi model.Time, a, b pathSig) error {
				if a == b || found >= maxBoundaries {
					return nil
				}
				if hi-lo == 1 {
					// A change point between adjacent durations: both
					// sides are corners.
					set = append(set, lo, hi)
					found++
					return nil
				}
				mid := lo + (hi-lo)/2
				sMid, err := pr.probe(p, mid)
				if err != nil {
					return err
				}
				if err := bisect(lo, mid, a, sMid); err != nil {
					return err
				}
				return bisect(mid, hi, sMid, b)
			}
			if err := bisect(bcet, wcet, sLo, sHi); err != nil {
				return nil, pr.runs, err
			}
		}
		// A checkpointing recovery model makes the fault path a sawtooth in
		// the sampled duration: the final (re-run) segment resets at every
		// multiple of Spacing — worst at the multiple itself, shortest just
		// past it — and the attempt pays one more overhead. The zero-fault
		// probes above cannot observe that boundary (it only matters when a
		// fault hits), so both sides of the largest segment boundaries
		// strictly inside (BCET, WCET) are added as corners unconditionally,
		// under the same per-process cap as bisection.
		if rec.Kind == model.RecoverCheckpoint && maxBoundaries > 0 {
			s := rec.Spacing
			added := 0
			for m := (wcet - 1) / s; m >= 1 && added < maxBoundaries; m-- {
				t := m * s
				if t <= bcet {
					break
				}
				if t >= wcet {
					continue
				}
				set = append(set, t, t+1)
				added++
			}
		}
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		uniq := set[:0]
		for i, t := range set {
			if i == 0 || t != uniq[len(uniq)-1] {
				uniq = append(uniq, t)
			}
		}
		corners[p] = uniq
	}
	return corners, pr.runs, nil
}
