package model

import (
	"fmt"
	"math"
)

// CoreID identifies a core within its Platform. IDs are dense indices in
// [0, NCores).
type CoreID int

// Core describes one computation core of a (possibly heterogeneous)
// platform, in the style of the FEST/EnSuRe low-power/high-performance
// split: a relative speed factor and active/idle power draws.
type Core struct {
	// Name is a human-readable identifier, unique within the platform.
	Name string
	// Speed is the relative speed factor of the core. Execution times in
	// the application model are nominal (speed 1.0); a process placed on
	// this core runs for ceil(t/Speed) time units. Speed must be positive
	// and finite.
	Speed float64
	// PowerActive is the power drawn while the core executes a process,
	// in energy units per (wall-clock) time unit. Must be non-negative
	// and finite.
	PowerActive float64
	// PowerIdle is the power drawn while the core is idle within the
	// operation cycle. Must be non-negative and finite.
	PowerIdle float64
}

// Platform is an immutable set of cores. The zero-cost canonical platform
// is SingleCore(): one core with speed 1 and unit active power, which
// reproduces the paper's single computation node exactly.
type Platform struct {
	cores []Core
}

// NewPlatform builds a platform from the given cores. It validates every
// core and returns an error naming the offending core and field.
func NewPlatform(cores ...Core) (*Platform, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("model: platform needs at least one core")
	}
	names := make(map[string]bool, len(cores))
	for i, c := range cores {
		if c.Name == "" {
			return nil, fmt.Errorf("model: core %d has an empty name", i)
		}
		if names[c.Name] {
			return nil, fmt.Errorf("model: duplicate core name %q", c.Name)
		}
		names[c.Name] = true
		if err := checkCoreValues(c); err != nil {
			return nil, fmt.Errorf("model: core %q: %w", c.Name, err)
		}
	}
	p := &Platform{cores: append([]Core(nil), cores...)}
	return p, nil
}

// MustNewPlatform is NewPlatform that panics on error; intended for
// statically-known fixtures.
func MustNewPlatform(cores ...Core) *Platform {
	p, err := NewPlatform(cores...)
	if err != nil {
		panic(err)
	}
	return p
}

func checkCoreValues(c Core) error {
	switch {
	case math.IsNaN(c.Speed) || math.IsInf(c.Speed, 0):
		return fmt.Errorf("speed must be finite (got %v)", c.Speed)
	case c.Speed <= 0:
		return fmt.Errorf("speed must be positive (got %v)", c.Speed)
	case math.IsNaN(c.PowerActive) || math.IsInf(c.PowerActive, 0):
		return fmt.Errorf("power-active must be finite (got %v)", c.PowerActive)
	case c.PowerActive < 0:
		return fmt.Errorf("power-active must be non-negative (got %v)", c.PowerActive)
	case math.IsNaN(c.PowerIdle) || math.IsInf(c.PowerIdle, 0):
		return fmt.Errorf("power-idle must be finite (got %v)", c.PowerIdle)
	case c.PowerIdle < 0:
		return fmt.Errorf("power-idle must be non-negative (got %v)", c.PowerIdle)
	}
	return nil
}

// SingleCore returns the canonical single-node platform of the paper: one
// core named "cpu" with speed 1, active power 1 and idle power 0. Every
// application without an explicit platform behaves as if mapped to it.
func SingleCore() *Platform {
	return MustNewPlatform(Core{Name: "cpu", Speed: 1, PowerActive: 1, PowerIdle: 0})
}

// NCores returns the number of cores.
func (p *Platform) NCores() int { return len(p.cores) }

// Core returns (a copy of) the core with the given ID.
func (p *Platform) Core(id CoreID) Core {
	if uint(id) >= uint(len(p.cores)) {
		p.badCore(id)
	}
	return p.cores[id]
}

// badCore panics for an out-of-range core id. Keeping the formatting out
// of Core lets Core inline into the timing loops.
//
//go:noinline
func (p *Platform) badCore(id CoreID) {
	panic(fmt.Sprintf("model: core id %d out of range [0,%d)", id, len(p.cores)))
}

// IsDefault reports whether the platform is indistinguishable from the
// canonical SingleCore() platform: one core with speed 1. Power parameters
// do not affect timing, so a platform is "default" for scheduling purposes
// iff it has one core at speed 1; serialisation additionally requires the
// canonical power values (see IsCanonical).
func (p *Platform) IsDefault() bool {
	return len(p.cores) == 1 && p.cores[0].Speed == 1
}

// IsCanonical reports whether the platform is exactly SingleCore(): one
// core with speed 1, active power 1 and idle power 0. Only canonical
// platforms may be omitted from serialised applications and trees.
func (p *Platform) IsCanonical() bool {
	return len(p.cores) == 1 &&
		p.cores[0].Speed == 1 &&
		p.cores[0].PowerActive == 1 &&
		p.cores[0].PowerIdle == 0
}

// Scale converts a nominal duration to wall-clock time on the given core:
// ceil(t/Speed), with an exact fast path for speed-1 cores so the canonical
// platform is bit-identical to the pre-platform model.
func (p *Platform) Scale(id CoreID, t Time) Time {
	s := p.Core(id).Speed
	if s == 1 || t <= 0 {
		return t
	}
	return Time(math.Ceil(float64(t) / s))
}

// FastestCore returns the core with the highest speed factor; ties break
// to the lowest ID. It is the canonical target for re-executions in the
// FEST/EnSuRe-style biased mapping.
func (p *Platform) FastestCore() CoreID {
	best := CoreID(0)
	for i := 1; i < len(p.cores); i++ {
		if p.cores[i].Speed > p.cores[best].Speed {
			best = CoreID(i)
		}
	}
	return best
}

// LowestPowerCore returns the core with the lowest active power; ties
// break to the lowest ID. It is the canonical first target for primaries.
func (p *Platform) LowestPowerCore() CoreID {
	best := CoreID(0)
	for i := 1; i < len(p.cores); i++ {
		if p.cores[i].PowerActive < p.cores[best].PowerActive {
			best = CoreID(i)
		}
	}
	return best
}

// Equal reports whether two platforms have identical core lists.
func (p *Platform) Equal(q *Platform) bool {
	if p == nil || q == nil {
		return p == q
	}
	if len(p.cores) != len(q.cores) {
		return false
	}
	for i := range p.cores {
		if p.cores[i] != q.cores[i] {
			return false
		}
	}
	return true
}

// String summarises the platform.
func (p *Platform) String() string {
	s := fmt.Sprintf("platform: %d cores [", len(p.cores))
	for i, c := range p.cores {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s(speed=%g,P=%g/%g)", c.Name, c.Speed, c.PowerActive, c.PowerIdle)
	}
	return s + "]"
}

// Mapping assigns every process a primary core and a recovery core for its
// re-executions. Slices are indexed by ProcessID.
type Mapping struct {
	// Primary[id] is the core the first attempt of process id runs on.
	Primary []CoreID
	// Recovery[id] is the core re-executions of process id run on after a
	// fault (the FEST/EnSuRe pattern places these on the fast core).
	Recovery []CoreID
}

// BiasedMapping builds the deterministic FEST/EnSuRe-style mapping for an
// application on a platform: primaries round-robin (by ProcessID) across
// the cores sharing the minimal active power, re-executions all on the
// fastest core. On a single-core platform every assignment is core 0, so
// the mapping is behaviour-neutral.
func BiasedMapping(a *Application, p *Platform) Mapping {
	n := a.N()
	m := Mapping{
		Primary:  make([]CoreID, n),
		Recovery: make([]CoreID, n),
	}
	minPower := p.cores[p.LowestPowerCore()].PowerActive
	var lowPower []CoreID
	for i, c := range p.cores {
		if c.PowerActive == minPower {
			lowPower = append(lowPower, CoreID(i))
		}
	}
	rec := p.FastestCore()
	for id := 0; id < n; id++ {
		m.Primary[id] = lowPower[id%len(lowPower)]
		m.Recovery[id] = rec
	}
	return m
}
