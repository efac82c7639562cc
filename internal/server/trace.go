package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"relsim/internal/eval"
)

// RequestIDHeader carries the per-request correlation id. A client may
// supply its own (any non-empty value is propagated verbatim);
// otherwise the server generates one. The response always echoes it,
// and it keys the slow-query log and the access log, so one id follows
// a request through headers, logs, and /debug/queries.
const RequestIDHeader = "X-Relsim-Request-ID"

// newRequestID returns a 16-hex-char random id.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a
		// time-derived id keeps requests traceable regardless.
		return fmt.Sprintf("t%015x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// PhaseSpan is one timed phase of a request's execution: what the
// server did on the request's behalf and how long it took.
type PhaseSpan struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// Trace is the per-request execution record: the request id, the timed
// phase spans (expand, score, ...), and the query
// detail the slow-query log captures. Handlers write it through
// nil-safe methods — /batch workers score with a nil trace and every
// method no-ops — and the middleware turns it into the Server-Timing
// header, phase histograms, the access log line, and (past the
// threshold) a slow-query entry.
type Trace struct {
	ID       string
	Endpoint string
	Start    time.Time

	mu     sync.Mutex
	phases []PhaseSpan

	// Query detail, populated by the handler that understood the body.
	pattern  string
	query    string
	alg      string
	queries  int
	version  uint64
	hits     uint64
	misses   uint64
	products uint64
}

func newTrace(id, endpoint string) *Trace {
	return &Trace{ID: id, Endpoint: endpoint, Start: time.Now()}
}

// ctxKey keys the trace in a request context.
type ctxKey struct{}

func withTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// traceFrom returns the request's trace, or nil when the context
// carries none — callers use the nil-safe Trace methods untested.
func traceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Phase starts a timed span; the returned func ends it and records the
// duration. Safe on the nil trace and from concurrent goroutines.
func (t *Trace) Phase(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		d := time.Since(start).Seconds()
		t.mu.Lock()
		t.phases = append(t.phases, PhaseSpan{Name: name, Seconds: d})
		t.mu.Unlock()
	}
}

// Phases returns a copy of the spans recorded so far.
func (t *Trace) Phases() []PhaseSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]PhaseSpan(nil), t.phases...)
}

// SetQuery records what the request asked for (single-query surfaces).
func (t *Trace) SetQuery(pattern, query, alg string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.pattern, t.query, t.alg = pattern, query, alg
	t.mu.Unlock()
}

// SetBatch records the batch's query count.
func (t *Trace) SetBatch(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.queries = n
	t.mu.Unlock()
}

// SetVersion records the pinned snapshot version the request evaluated
// against.
func (t *Trace) SetVersion(v uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.version = v
	t.mu.Unlock()
}

// SetEval snapshots the request evaluator's cache and product tallies.
func (t *Trace) SetEval(c *eval.Counters) {
	if t == nil || c == nil {
		return
	}
	t.mu.Lock()
	t.hits = c.Hits.Load()
	t.misses = c.Misses.Load()
	t.products = c.Products.Load()
	t.mu.Unlock()
}

// serverTiming renders the spans recorded so far as a Server-Timing
// header value (milliseconds, per the spec), ending with the total so
// far. Called by the response writer wrapper at first WriteHeader —
// evaluation is complete by the time any handler writes, so the spans
// are final.
func (t *Trace) serverTiming() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	spans := append([]PhaseSpan(nil), t.phases...)
	t.mu.Unlock()
	b := make([]byte, 0, 24*(len(spans)+1))
	for _, s := range spans {
		b = append(b, sanitizeToken(s.Name)...)
		b = append(b, ";dur="...)
		b = strconv.AppendFloat(b, s.Seconds*1000, 'f', 2, 64)
		b = append(b, ", "...)
	}
	b = append(b, "total;dur="...)
	b = strconv.AppendFloat(b, time.Since(t.Start).Seconds()*1000, 'f', 2, 64)
	return string(b)
}

// sanitizeToken restricts a phase name to header-token-safe runes.
// Phase names are server-chosen constants today; this keeps a future
// dynamic name from corrupting the header.
func sanitizeToken(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			return r
		}
		return '-'
	}, s)
}
