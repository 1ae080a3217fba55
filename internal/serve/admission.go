package serve

import (
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ftsched/internal/obs"
	"ftsched/internal/serveapi"
)

// Limits is the per-tenant admission policy. Zero values mean unlimited:
// the default server admits everything, and operators opt into shedding.
type Limits struct {
	// RatePerSec refills the tenant's token bucket (requests per second);
	// Burst caps the bucket (defaults to max(RatePerSec, 1) when a rate
	// is set). A request with no token is rejected 429 KindRateLimited
	// with a retry-after hint.
	RatePerSec float64
	Burst      float64
	// MaxInFlight caps the tenant's concurrently executing requests;
	// beyond it requests are rejected 503 KindOverloaded.
	MaxInFlight int
}

// tokenBucket is a hand-rolled token bucket (the container bakes in no
// rate-limit dependency, and the math is four lines): tokens refill
// continuously at rate/sec up to burst, one token per admitted request.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// take consumes one token, refilling for the elapsed time first. When
// empty it reports how long until the next token.
func (b *tokenBucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.tokens = b.burst
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(b.burst, b.tokens+dt*b.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := 1 - b.tokens
	return false, time.Duration(need / b.rate * float64(time.Second))
}

// Tenant is one isolated client of the server: its own admission state
// and its own metrics collector, scrapeable at
// /v1/tenants/{name}/metrics.
type Tenant struct {
	name     string
	metrics  *obs.Metrics
	bucket   *tokenBucket // nil = unlimited rate
	inFlight atomic.Int64
	maxIn    int64 // 0 = unlimited
}

// admit applies the tenant's admission policy. On success the caller owns
// one in-flight slot and must release it with done(). Rejections are the
// typed wire errors the contract promises: never a dropped connection.
func (t *Tenant) admit(now time.Time) (done func(), werr *serveapi.Error) {
	if t.bucket != nil {
		if ok, retry := t.bucket.take(now); !ok {
			t.metrics.Add(obs.ServeRejectedRate, 1)
			return nil, &serveapi.Error{
				Code: http.StatusTooManyRequests, Kind: serveapi.KindRateLimited,
				Message:          "tenant rate limit exceeded",
				Tenant:           t.name,
				RetryAfterMillis: int64(retry / time.Millisecond),
			}
		}
	}
	n := t.inFlight.Add(1)
	if t.maxIn > 0 && n > t.maxIn {
		t.inFlight.Add(-1)
		t.metrics.Add(obs.ServeRejectedLoad, 1)
		return nil, &serveapi.Error{
			Code: http.StatusServiceUnavailable, Kind: serveapi.KindOverloaded,
			Message: "tenant in-flight cap reached",
			Tenant:  t.name,
		}
	}
	return func() { t.inFlight.Add(-1) }, nil
}

// tenants is the registry: tenants materialise on first use with the
// server-wide default limits.
type tenants struct {
	limits Limits
	mu     sync.Mutex
	m      map[string]*Tenant
}

func newTenants(limits Limits) *tenants {
	return &tenants{limits: limits, m: make(map[string]*Tenant)}
}

func (r *tenants) get(name string) *Tenant {
	if name == "" {
		name = serveapi.DefaultTenant
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t := r.m[name]; t != nil {
		return t
	}
	t := &Tenant{name: name, metrics: obs.NewMetrics(), maxIn: int64(r.limits.MaxInFlight)}
	if r.limits.RatePerSec > 0 {
		burst := r.limits.Burst
		if burst < 1 {
			burst = math.Max(r.limits.RatePerSec, 1)
		}
		t.bucket = &tokenBucket{rate: r.limits.RatePerSec, burst: burst}
	}
	r.m[name] = t
	return t
}

// lookup returns an existing tenant without creating one.
func (r *tenants) lookup(name string) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.m[name]
}

func (r *tenants) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}

func (r *tenants) totalInFlight() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, t := range r.m {
		n += t.inFlight.Load()
	}
	return n
}
