// Package client is the Go client of the ftserved scheduling service:
// typed wrappers over the ftsched-api/v1 wire contract (internal/serveapi)
// used by the command-line tools' remote modes (ftsim -remote, ftload) and
// available to embedders that talk to a shared ftserved process instead of
// linking the engines.
//
// Every non-2xx response decodes into the typed *serveapi.Error the server
// guarantees, so callers branch on Kind (rate_limited, overloaded,
// draining, unknown_tree, ...) exactly like the admission contract
// documents. Failures below the contract — connection resets, truncated
// or corrupted bodies, per-attempt timeouts — surface as *TransportError.
// A response body longer than serveapi.MaxResponseBytes is not read past
// the bound (nor at all when its Content-Length already exceeds it) and
// fails with *ResponseTooLargeError.
//
// With a RetryPolicy (see WithRetryPolicy / DefaultRetryPolicy) the
// client heals transient failures itself: capped exponential backoff
// with full jitter over retryable wire errors (rate_limited, overloaded,
// draining — honoring their RetryAfterMillis) and all transport errors,
// plus a per-endpoint circuit breaker with half-open probing. Calls that
// stay retryable to the end return a *RetryExhaustedError carrying the
// per-attempt trace; non-retryable errors return bare on first sight.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ftsched/internal/obs"
	"ftsched/internal/serveapi"
)

// DefaultRequestTimeout bounds a single HTTP attempt when the caller
// does not supply an http.Client of their own. A hung server then
// surfaces as a retryable *TransportError instead of blocking forever.
const DefaultRequestTimeout = 30 * time.Second

// Client talks to one ftserved base URL. The zero value is not usable;
// construct with New. A Client is safe for concurrent use.
type Client struct {
	base   string
	tenant string
	httpc  *http.Client
	retry  RetryPolicy
	sink   obs.Sink

	mu       sync.Mutex
	breakers map[string]*breaker

	// Injection points for deterministic tests.
	now   func() time.Time
	sleep func(ctx context.Context, d time.Duration) error
	rand  func() float64
}

// Option configures a Client.
type Option func(*Client)

// WithTenant sets the tenant header sent with every request; unset means
// the server's default tenant.
func WithTenant(name string) Option { return func(c *Client) { c.tenant = name } }

// WithHTTPClient replaces the underlying http.Client (timeouts, proxies,
// connection pools). The default is a client with DefaultRequestTimeout.
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.httpc = h } }

// WithRetryPolicy enables self-healing under the given policy (unset
// backoff knobs are defaulted). Without this option the client makes
// exactly one attempt per call.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p.withDefaults() }
}

// WithMetrics routes the Client* obs counters and histograms to a sink
// (e.g. *obs.Metrics). The default discards them.
func WithMetrics(sink obs.Sink) Option { return func(c *Client) { c.sink = sink } }

// New builds a client for an ftserved base URL such as
// "http://127.0.0.1:8433".
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:     base,
		httpc:    &http.Client{Timeout: DefaultRequestTimeout},
		sink:     obs.NopSink{},
		breakers: make(map[string]*breaker),
		now:      time.Now,
		sleep:    sleepCtx,
		rand:     jitter,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// ResponseTooLargeError reports a response body longer than
// serveapi.MaxResponseBytes. The client stops reading at the bound, so a
// hostile or broken server cannot make it allocate without limit. It is
// not retried: the server would send the same body again.
type ResponseTooLargeError struct {
	// Path is the API path the call targeted.
	Path string
	// Limit is the bound the body exceeded, serveapi.MaxResponseBytes.
	Limit int64
}

// Error implements error.
func (e *ResponseTooLargeError) Error() string {
	return fmt.Sprintf("client: %s: response body exceeds %d bytes (serveapi.MaxResponseBytes)", e.Path, e.Limit)
}

// jsonInto is the response decoder of every endpoint but dispatch.
func jsonInto(resp any) func([]byte) error {
	return func(data []byte) error { return json.Unmarshal(data, resp) }
}

// post issues one API call under the retry policy: marshal once, then
// attempt (send, decode) as often as the policy allows — non-2xx bodies
// decode into the typed wire error, everything below the contract
// becomes a *TransportError.
func (c *Client) post(ctx context.Context, path string, req any, decode func([]byte) error) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("client: encoding %s request: %w", path, err)
	}
	return c.send(ctx, path, body, decode)
}

// send is post for a request body that is already encoded.
func (c *Client) send(ctx context.Context, path string, body []byte, decode func([]byte) error) error {
	return c.doRetry(ctx, path, func() error {
		return c.attempt(ctx, path, body, decode)
	})
}

// attempt performs one try of an API call against a fresh body reader.
func (c *Client) attempt(ctx context.Context, path string, body []byte, decode func([]byte) error) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("client: %s: %w", path, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if c.tenant != "" {
		hreq.Header.Set(serveapi.TenantHeader, c.tenant)
	}
	if deadline, ok := ctx.Deadline(); ok {
		// Ship the caller's remaining budget so the server can cancel
		// engine work it cannot answer in time (see serveapi.DeadlineHeader).
		if ms := time.Until(deadline).Milliseconds(); ms > 0 {
			hreq.Header.Set(serveapi.DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	hresp, err := c.httpc.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's own context expired or was canceled: not a
			// server fault, never retried.
			return fmt.Errorf("client: %s: %w", path, ctx.Err())
		}
		// Connection refused/reset or the per-attempt http.Client
		// timeout: below the wire contract, safe to retry.
		return &TransportError{Path: path, Err: err}
	}
	defer hresp.Body.Close()
	data, tooLarge, err := serveapi.ReadBody(hresp.Body, hresp.ContentLength, serveapi.MaxResponseBytes)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("client: reading %s response: %w", path, ctx.Err())
		}
		// Connection reset mid-body.
		return &TransportError{Path: path, Err: fmt.Errorf("reading response: %w", err)}
	}
	if tooLarge {
		return &ResponseTooLargeError{Path: path, Limit: serveapi.MaxResponseBytes}
	}
	if hresp.StatusCode/100 != 2 {
		var er serveapi.ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Err.Kind == "" {
			// The typed-error contract says a real ftserved cannot
			// produce this, so treat it as wire damage (or an
			// intermediary) and let the policy retry it.
			return &TransportError{Path: path,
				Err: fmt.Errorf("http %d with untyped body: %.200s", hresp.StatusCode, data)}
		}
		werr := er.Err
		return &werr
	}
	if err := decode(data); err != nil {
		// Truncated or corrupted 2xx body: the response is lost but the
		// SHA-256 tree cache makes the re-ask idempotent.
		return &TransportError{Path: path, Err: fmt.Errorf("decoding response: %w", err)}
	}
	return nil
}

// Synthesize compiles (or fetches from the server cache) the quasi-static
// tree for an application.
func (c *Client) Synthesize(ctx context.Context, req serveapi.SynthesizeRequest) (*serveapi.SynthesizeResponse, error) {
	req.Format = serveapi.FormatV1
	var resp serveapi.SynthesizeResponse
	if err := c.post(ctx, "/v1/synthesize", req, jsonInto(&resp)); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Eval runs a Monte-Carlo evaluation against a compiled tree.
func (c *Client) Eval(ctx context.Context, req serveapi.EvalRequest) (*serveapi.EvalResponse, error) {
	req.Format = serveapi.FormatV1
	var resp serveapi.EvalResponse
	if err := c.post(ctx, "/v1/eval", req, jsonInto(&resp)); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Certify certifies a compiled tree; a failed certification is a 200 with
// Certified false and the replayable counterexample, not an error.
func (c *Client) Certify(ctx context.Context, req serveapi.CertifyRequest) (*serveapi.CertifyResponse, error) {
	req.Format = serveapi.FormatV1
	var resp serveapi.CertifyResponse
	if err := c.post(ctx, "/v1/certify", req, jsonInto(&resp)); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Chaos runs a chaos campaign against a compiled tree.
func (c *Client) Chaos(ctx context.Context, req serveapi.ChaosRequest) (*serveapi.ChaosResponse, error) {
	req.Format = serveapi.FormatV1
	var resp serveapi.ChaosResponse
	if err := c.post(ctx, "/v1/chaos", req, jsonInto(&resp)); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Dispatch executes a batch of operation cycles through the compiled
// dispatcher and returns the positional per-cycle outcomes. The request
// is encoded by serveapi.EncodeDispatchRequest and the response decoded
// by serveapi.DecodeDispatchResponse, the single-pass batch codec.
func (c *Client) Dispatch(ctx context.Context, req serveapi.DispatchRequest) (*serveapi.DispatchResponse, error) {
	req.Format = serveapi.FormatV1
	body, err := serveapi.EncodeDispatchRequest(&req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding /v1/dispatch request: %w", err)
	}
	var resp *serveapi.DispatchResponse
	if err := c.send(ctx, "/v1/dispatch", body, func(data []byte) (err error) {
		resp, err = serveapi.DecodeDispatchResponse(data)
		return err
	}); err != nil {
		return nil, err
	}
	return resp, nil
}

// Reload hot-recompiles the tree behind a key and swaps it in atomically.
func (c *Client) Reload(ctx context.Context, req serveapi.ReloadRequest) (*serveapi.ReloadResponse, error) {
	req.Format = serveapi.FormatV1
	var resp serveapi.ReloadResponse
	if err := c.post(ctx, "/v1/reload", req, jsonInto(&resp)); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Health fetches the server health summary.
func (c *Client) Health(ctx context.Context) (*serveapi.HealthResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
	if err != nil {
		return nil, fmt.Errorf("client: healthz: %w", err)
	}
	hresp, err := c.httpc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("client: healthz: %w", err)
	}
	defer hresp.Body.Close()
	data, tooLarge, err := serveapi.ReadBody(hresp.Body, hresp.ContentLength, serveapi.MaxResponseBytes)
	if err != nil {
		return nil, fmt.Errorf("client: reading healthz: %w", err)
	}
	if tooLarge {
		return nil, &ResponseTooLargeError{Path: "/v1/healthz", Limit: serveapi.MaxResponseBytes}
	}
	var resp serveapi.HealthResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, fmt.Errorf("client: decoding healthz: %w", err)
	}
	return &resp, nil
}
