package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// WritePrometheus renders the collector in the Prometheus text exposition
// format (version 0.0.4): every counter as a `counter`, every histogram as
// a `histogram` with cumulative le-labelled buckets, _sum and _count.
// Never-incremented metrics are rendered too, so scrapers see the full
// schema from the first scrape.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	for c := Counter(0); c < numCounters; c++ {
		name := c.Name()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, counterHelp[c], name, name, m.counters[c].Load()); err != nil {
			return err
		}
	}
	for h := Histogram(0); h < numHistograms; h++ {
		name := h.Name()
		hs := &m.hists[h]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n",
			name, histogramHelp[h], name); err != nil {
			return err
		}
		var cum int64
		for i := 0; i < numBuckets; i++ {
			cum += hs.buckets[i].Load()
			le := "+Inf"
			if i < numBuckets-1 {
				le = fmt.Sprintf("%d", BucketBound(i))
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n",
			name, hs.sum.Load(), name, hs.count.Load()); err != nil {
			return err
		}
	}
	return nil
}

// published is the Metrics instance the process-wide expvar variable
// "ftsched" reads from; Handler installs its collector here. expvar's
// registry is append-only, so the variable is registered once and
// indirects through this pointer.
var (
	published   atomic.Pointer[Metrics]
	publishOnce sync.Once
)

// publishExpvar registers m as the process's expvar-visible collector.
func publishExpvar(m *Metrics) {
	published.Store(m)
	publishOnce.Do(func() {
		expvar.Publish("ftsched", expvar.Func(func() any {
			p := published.Load()
			if p == nil {
				return nil
			}
			return p.Snapshot()
		}))
	})
}

// Handler returns the observability endpoint for one collector:
//
//	/metrics        Prometheus text exposition format
//	/debug/vars     expvar JSON (the collector is the "ftsched" variable)
//	/debug/pprof/   net/http/pprof profiles
//
// The collector is also published to the process-wide expvar registry; if
// Handler is called for several collectors the expvar variable follows
// the most recent one (each handler's own /metrics stays bound to its
// collector).
func Handler(m *Metrics) http.Handler {
	publishExpvar(m)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = m.WritePrometheus(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// MarshalJSON serialises a Snapshot for expvar.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	type plain Snapshot // avoid recursing into this method
	return json.Marshal(plain(s))
}

// Serve starts an HTTP server for Handler(m) on addr (":0" picks a free
// port) and returns the bound address plus a shutdown function. The server
// runs until the shutdown function is called or the process exits; serving
// errors after shutdown are discarded.
//
// Shutdown is graceful: the listener stops accepting, in-flight scrapes
// run to completion (bounded by serveShutdownTimeout, after which
// connections are torn down), and only then does the function return —
// so a process draining on SIGTERM never truncates a scrape mid-body.
// The function is idempotent and safe to call from several goroutines.
func Serve(addr string, m *Metrics) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: Handler(m)}
	go func() { _ = srv.Serve(ln) }()
	var once sync.Once
	var shutdownErr error
	shutdown := func() error {
		once.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), serveShutdownTimeout)
			defer cancel()
			shutdownErr = srv.Shutdown(ctx)
			if shutdownErr != nil {
				// The deadline passed with a scrape still running; tear
				// the connections down rather than hang the exit path.
				shutdownErr = srv.Close()
			}
		})
		return shutdownErr
	}
	return ln.Addr().String(), shutdown, nil
}

// serveShutdownTimeout bounds how long Serve's shutdown waits for
// in-flight scrapes before tearing connections down.
const serveShutdownTimeout = 5 * time.Second
