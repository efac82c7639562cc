package server

// Traffic hardening: the admission middleware chain. Every request to a
// gated endpoint passes identify → quota → admit before its body is
// read, a snapshot is pinned, or an evaluator is built:
//
//	identify  resolve the client key (X-Relsim-Api-Key, else the
//	          remote address)
//	quota     per-client token bucket — drained answers 429 with
//	          Retry-After
//	admit     concurrency gate with a bounded wait queue — a full
//	          queue or an expired wait answers 503 immediately
//
// Rejections therefore cost O(1): a shed request never decodes JSON,
// never pins a version (PinStats stays flat however hard the box is
// overloaded), and never occupies a worker. The third mechanism, the
// per-request cost ceiling, runs later in the handler — it needs the
// decoded pattern set — but still strictly before any snapshot is
// pinned or matrix materialized: the product count of the halves the
// request reads (eval.EstimateProducts; a root M_p is never built on
// /search or /batch, so it is never priced) is compared against the
// ceiling and pathological queries answer 422.
//
// The observability surface (/healthz, /stats, /metrics, /debug) and
// the replication surface (/log, /checkpoint) are exempt: probes and
// followers must see an overloaded leader, not be shed by it.

import (
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"relsim/internal/admission"
	"relsim/internal/telemetry"
)

// APIKeyHeader identifies the client for rate limiting; without it the
// remote address is the key.
const APIKeyHeader = "X-Relsim-Api-Key"

// AdmissionStats is the /stats view of the admission controller.
type AdmissionStats = admission.Stats

// WithAdmissionLimits enables concurrency-gated admission: at most
// maxInFlight gated requests run concurrently, up to queueDepth more
// wait in a bounded queue, and the rest are shed with 503 before any
// request work happens. maxInFlight <= 0 disables the gate.
func WithAdmissionLimits(maxInFlight, queueDepth int) Option {
	return func(s *Server) {
		s.admCfg.MaxInFlight = maxInFlight
		s.admCfg.QueueDepth = queueDepth
	}
}

// WithAdmissionQueueWait bounds how long one queued request waits for
// capacity before it is shed (default admission.DefaultQueueWait).
func WithAdmissionQueueWait(d time.Duration) Option {
	return func(s *Server) { s.admCfg.QueueWait = d }
}

// WithAdmissionRate enables per-client token-bucket rate limiting:
// rate sustained requests/second with burst capacity above it, keyed
// by X-Relsim-Api-Key (falling back to the remote address). rate <= 0
// disables the default bucket; per-tenant overrides still apply.
func WithAdmissionRate(rate float64, burst int) Option {
	return func(s *Server) {
		s.admCfg.Rate = rate
		s.admCfg.Burst = burst
	}
}

// WithAdmissionTenantRate overrides the token bucket for one client
// key (rate <= 0 makes that tenant unlimited). May be repeated.
func WithAdmissionTenantRate(key string, rate float64, burst int) Option {
	return func(s *Server) {
		if s.admCfg.Overrides == nil {
			s.admCfg.Overrides = make(map[string]admission.RateLimit)
		}
		s.admCfg.Overrides[key] = admission.RateLimit{Rate: rate, Burst: burst}
	}
}

// WithAdmissionMaxCost sets the per-request cost ceiling in estimated
// matrix products (see eval.EstimateProducts): requests whose pattern
// set would cost more answer 422 before materialization starts. n <= 0
// disables the ceiling.
func WithAdmissionMaxCost(n int) Option {
	return func(s *Server) { s.admCfg.MaxCost = n }
}

// WithMaxBodyBytes bounds request bodies; larger bodies answer 413 at
// decode time instead of being read fully into memory. n <= 0 removes
// the bound (default DefaultMaxBodyBytes).
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) { s.maxBody = n }
}

// WithMaxTimeout caps the per-request ?timeout_ms= override (default
// DefaultMaxTimeout): larger values are clamped to d, so a client can
// shorten the server deadline but never extend it past the operator's
// ceiling. d <= 0 removes the cap.
func WithMaxTimeout(d time.Duration) Option {
	return func(s *Server) { s.maxTimeout = d }
}

// Admission returns the server's admission controller (nil when no
// admission mechanism is configured) — tests and the cmd layer probe
// it.
func (s *Server) Admission() *admission.Controller { return s.adm }

// gated reports whether an endpoint is subject to admission control.
// The observability and replication surfaces are exempt: a probe, a
// scrape, or a follower's tail must observe an overloaded leader
// instead of being shed by it.
func gated(ep string) bool {
	switch ep {
	case "search", "batch", "explain", "mutations":
		return true
	}
	return false
}

// clientKey resolves the rate-limit identity: the API key header when
// present, else the remote host (ports vary per connection and would
// defeat the bucket).
func clientKey(r *http.Request) string {
	if k := r.Header.Get(APIKeyHeader); k != "" {
		return k
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// retryAfterSeconds renders a Retry-After value: whole seconds, rounded
// up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// protected is the hardened request path every request flows through,
// inside the observability middleware: panic recovery, then admission
// for the gated endpoints, then the request-body bound, then the mux.
func (s *Server) protected(w http.ResponseWriter, r *http.Request) {
	// A handler panic unwinds through the handler's own defers first —
	// releasing its pinned snapshot — and is converted to a clean 500
	// here, so one broken request cannot leak a pin (blocking checkpoint
	// retirement and skewing PinStats forever), skew the in-flight
	// gauges, or tear down the connection without a response.
	defer func() {
		if p := recover(); p != nil {
			s.obs.panics.Inc()
			log.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			s.writeJSON(w, http.StatusInternalServerError, errorResponse{
				Error: fmt.Sprintf("internal error: %v", p),
				Code:  "panic",
			})
		}
	}()
	if s.adm != nil && gated(endpointName(r.URL.Path)) {
		if ok, retry := s.adm.Allow(clientKey(r)); !ok {
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			s.writeJSON(w, http.StatusTooManyRequests, errorResponse{
				Error: "rate limit exceeded",
				Code:  "rate_limited",
			})
			return
		}
		release, ok, waited := s.adm.Acquire(r.Context())
		if !ok {
			w.Header().Set("Retry-After", "1")
			s.writeJSON(w, http.StatusServiceUnavailable, errorResponse{
				Error: "server overloaded, request shed",
				Code:  "overloaded",
			})
			return
		}
		defer release()
		s.admWait.Observe(waited.Seconds())
	}
	if s.maxBody > 0 && r.Body != nil && r.Body != http.NoBody {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	s.mux.ServeHTTP(w, r)
}

// checkCost enforces the per-request cost ceiling: cost is the
// request's estimated evaluation cost in matrix products (searchCost,
// explainCost, or a /batch's eval.EstimateProducts). Over the ceiling it
// writes the 422 and reports false; the caller must return without
// pinning a snapshot.
func (s *Server) checkCost(w http.ResponseWriter, cost int) bool {
	max := s.adm.MaxCost()
	if max <= 0 || cost <= max {
		return true
	}
	s.adm.RejectCost()
	s.writeJSON(w, http.StatusUnprocessableEntity, errorResponse{
		Error: fmt.Sprintf("estimated evaluation cost %d matrix products exceeds the ceiling %d", cost, max),
		Code:  "cost_ceiling",
	})
	return false
}

// instrumentAdmission registers the relsim_admission_* series. All read
// through nil-safe controller accessors, so an unconfigured controller
// exposes honest zeros rather than absent series.
func (s *Server) instrumentAdmission(reg *telemetry.Registry) {
	reg.CounterFunc("relsim_admission_admitted_total",
		"Requests admitted through the concurrency gate.",
		func() float64 { return float64(s.adm.Admitted()) })
	reg.CounterFunc("relsim_admission_shed_total",
		"Requests shed by load (queue full, queue wait expired, or client gone while queued).",
		func() float64 { return float64(s.adm.Shed()) })
	reg.CounterFunc("relsim_admission_throttled_total",
		"Requests rejected by per-client rate limiting.",
		func() float64 { return float64(s.adm.Throttled()) })
	reg.CounterFunc("relsim_admission_cost_rejected_total",
		"Requests rejected by the per-request cost ceiling.",
		func() float64 { return float64(s.adm.CostRejected()) })
	reg.GaugeFunc("relsim_admission_in_flight",
		"Gated requests currently admitted and running.",
		func() float64 { return float64(s.adm.InFlight()) })
	reg.GaugeFunc("relsim_admission_queue_depth",
		"Requests currently waiting for admission capacity.",
		func() float64 { return float64(s.adm.Queued()) })
	reg.GaugeFunc("relsim_admission_tracked_clients",
		"Distinct client keys holding a live rate-limit bucket.",
		func() float64 { return float64(s.adm.TrackedClients()) })
	s.admWait = reg.Histogram("relsim_admission_wait_seconds",
		"Time admitted requests spent queued for capacity.",
		nil).With()
}
