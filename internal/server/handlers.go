package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"relsim/internal/eval"
	"relsim/internal/graph"
	"relsim/internal/pattern"
	"relsim/internal/replica"
	"relsim/internal/rre"
	"relsim/internal/sim"
	"relsim/internal/store"
)

// SearchRequest is the POST /search body. Query is a node display name
// or a decimal node id. Alg defaults to "search", the structurally
// robust pipeline; "relsim", "pathsim" and "hetesim" score the pattern
// as given, "rwr" and "simrank" ignore the pattern.
type SearchRequest struct {
	Pattern  string `json:"pattern"`
	Query    string `json:"query"`
	Type     string `json:"type,omitempty"`
	Top      int    `json:"top,omitempty"`
	NoExpand bool   `json:"no_expand,omitempty"`
	Alg      string `json:"alg,omitempty"`
	// Annotate selects semiring annotation: "witness" attaches instance
	// counts and a bounded derivation prefix to every result (the
	// ?annotate= query parameter overrides it). Annotation requires a
	// pattern-bearing algorithm and explains the pattern as written, not
	// its Algorithm-1 expansion.
	Annotate string `json:"annotate,omitempty"`
}

// ScoredNode is one ranked answer. Witness carries the semiring
// annotation when the request asked for one.
type ScoredNode struct {
	ID      graph.NodeID `json:"id"`
	Name    string       `json:"name,omitempty"`
	Score   float64      `json:"score"`
	Witness *WitnessInfo `json:"witness,omitempty"`
}

// SearchResponse is the POST /search body and one /batch result.
type SearchResponse struct {
	Query    string       `json:"query"`
	QueryID  graph.NodeID `json:"query_id"`
	Pattern  string       `json:"pattern,omitempty"`
	Alg      string       `json:"alg"`
	Annotate string       `json:"annotate,omitempty"`
	Expanded int          `json:"expanded,omitempty"`
	Version  uint64       `json:"version"`
	Results  []ScoredNode `json:"results"`
}

const defaultTop = 10

// decodeJSON decodes a request body, writing the error response on
// failure: 413 when the body ran past the server's MaxBytesReader bound
// (the read stops at the bound — an unbounded /batch body is never
// pulled fully into memory), 400 for malformed JSON.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(r.Body).Decode(v)
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		s.writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
			Error: fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit),
			Code:  "body_too_large",
		})
		return false
	}
	s.writeError(w, http.StatusBadRequest, err)
	return false
}

// runSearch answers one query against the evaluator's pinned snapshot.
// The snapshot is immutable, so the evaluation sees one consistent
// graph version however long it runs and however many writes land
// meanwhile. tr records phase spans (expand, score) when the request is
// traced; /batch workers pass nil — the batch traces its phases at
// batch granularity instead.
func (s *Server) runSearch(ev *eval.Evaluator, req *SearchRequest, tr *Trace) (*SearchResponse, error) {
	if s.testHookEval != nil {
		s.testHookEval(req)
	}
	g := ev.Graph()
	q, ok := resolveNode(g, req.Query)
	if !ok {
		return nil, fmt.Errorf("query node %q not found", req.Query)
	}
	// A type restricts the answers to its nodes: the scorer tests each
	// node it reaches against the type's domain, the baselines take its
	// node list. A typo'd type yields an empty answer, not an unfiltered
	// one: its domain holds no node, and its list is kept non-nil, since
	// nil means "unrestricted" to the sim package. No type ranks every
	// node.
	dom := graph.AllNodes
	var candidates []graph.NodeID
	if req.Type != "" {
		dom = g.TypeDomain(req.Type)
		if candidates = g.NodesOfType(req.Type); candidates == nil {
			candidates = []graph.NodeID{}
		}
	}
	alg := req.Alg
	if alg == "" {
		alg = "search"
	}

	top := req.Top
	if top <= 0 {
		top = defaultTop
	}
	var (
		rank     sim.Ranking
		expanded int
		qs       *querySet
	)
	if alg != "rwr" && alg != "simrank" {
		end := tr.Phase("expand")
		var err error
		qs, err = s.queryPatterns(req)
		end()
		if err != nil {
			return nil, err
		}
	}
	err := func() error {
		defer tr.Phase("score")()
		switch alg {
		case "rwr":
			rank = sim.RWR(ev, sim.DefaultRWR(), q, candidates)
		case "simrank":
			rank = sim.SimRankMC(ev, sim.DefaultSimRank(), q, candidates)
		case "search", "relsim":
			if qs.expanded {
				expanded = len(qs.ps)
			}
			rank = sim.ScoreDomain(ev, qs.cuts, q, dom, top)
		case "pathsim":
			var err error
			rank, err = sim.PathSim(ev, qs.ps[0], q, candidates)
			if err != nil {
				return err
			}
		case "hetesim":
			rank = sim.HeteSimRRE(ev, qs.ps[0], q, candidates)
		default:
			return fmt.Errorf("unknown alg %q", alg)
		}
		return nil
	}()
	if err != nil {
		return nil, err
	}

	rank = rank.TopK(top)
	results := make([]ScoredNode, rank.Len())
	for i, id := range rank.IDs {
		results[i] = ScoredNode{ID: id, Name: g.Node(id).Name, Score: rank.Scores[i]}
	}
	if req.Annotate != "" {
		// /batch workers reach here with whatever the query carried, so
		// the full validation runs per query, not just in handleSearch.
		if req.Annotate != AnnotateWitness {
			return nil, fmt.Errorf("invalid annotate %q (want %q)", req.Annotate, AnnotateWitness)
		}
		if alg == "rwr" || alg == "simrank" {
			return nil, fmt.Errorf("annotate is not supported for alg %q (no pattern to annotate)", alg)
		}
		if err := s.annotateResults(ev, req, q, results); err != nil {
			return nil, err
		}
	}
	return &SearchResponse{
		Query:    req.Query,
		QueryID:  q,
		Pattern:  req.Pattern,
		Alg:      alg,
		Annotate: req.Annotate,
		Expanded: expanded,
		Version:  ev.Version(),
		Results:  results,
	}, nil
}

// guardedSearch runs one search converting evaluation cancellation into
// an error.
func (s *Server) guardedSearch(ev *eval.Evaluator, req *SearchRequest, tr *Trace) (resp *SearchResponse, err error) {
	err = eval.Guard(func() error {
		var inner error
		resp, inner = s.runSearch(ev, req, tr)
		return inner
	})
	return resp, err
}

// safeBatchSearch runs one batch query converting a worker panic into
// that query's error. Batch workers are plain goroutines — outside
// net/http's recovery and outside the server's panic middleware — so a
// panic escaping one would crash the whole process, not fail one
// request. eval.Guard only converts *eval.Canceled; anything else lands
// here.
func (s *Server) safeBatchSearch(ev *eval.Evaluator, req *SearchRequest) (resp *SearchResponse, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.obs.panics.Inc()
			log.Printf("panic in batch query %q: %v\n%s", req.Query, p, debug.Stack())
			resp, err = nil, fmt.Errorf("internal error: %v", p)
		}
	}()
	return s.guardedSearch(ev, req, nil)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	an, err := mergeAnnotate(r, req.Annotate)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	req.Annotate = an
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	// Cost ceiling before the pin: the pattern expansion needs only the
	// schema (and hits the expand memo, so the handler's own expansion
	// below is a cache hit), never a snapshot. Expansion errors fall
	// through — the handler reports them with its usual 400.
	if s.adm.MaxCost() > 0 && !s.checkCost(w, s.searchCost(&req)) {
		return
	}

	// Pin one snapshot for the request's lifetime: the query evaluates
	// against this frozen version, writers proceed unblocked.
	pin := s.st.Pin()
	defer pin.Release()
	ev := s.evaluator(pin.Snapshot(), pin.Version()).WithContext(ctx)

	tr := traceFrom(r.Context())
	tr.SetQuery(req.Pattern, req.Query, req.Alg)
	tr.SetVersion(pin.Version())
	resp, err := s.guardedSearch(ev, &req, tr)
	tr.SetEval(ev.Counters())
	if err != nil {
		if !s.writeIfCanceled(w, err) {
			s.writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// writeIfCanceled writes the HTTP mapping of an evaluation
// cancellation — 504 for a server-side deadline (the middleware counts
// the status as a timeout), 503 for a plain cancellation (typically the
// client went away) — and reports whether err was one. /search and
// /explain share this mapping; /batch reports its timeouts per query.
func (s *Server) writeIfCanceled(w http.ResponseWriter, err error) bool {
	var c *eval.Canceled
	if !errors.As(err, &c) {
		return false
	}
	if errors.Is(c.Err, context.DeadlineExceeded) {
		s.writeError(w, http.StatusGatewayTimeout, err)
	} else {
		s.writeError(w, http.StatusServiceUnavailable, err)
	}
	return true
}

// BatchRequest is the POST /batch body. Workers overrides the server's
// worker-pool size for this batch only.
type BatchRequest struct {
	Queries []SearchRequest `json:"queries"`
	Workers int             `json:"workers,omitempty"`
}

// BatchResult is one per-query outcome; exactly one of Response/Error is
// set.
type BatchResult struct {
	*SearchResponse
	Error string `json:"error,omitempty"`
}

// BatchResponse is the POST /batch body. Results align with the request
// queries by index.
type BatchResponse struct {
	Version uint64        `json:"version"`
	Results []BatchResult `json:"results"`
}

// handleBatch answers many queries against one pinned snapshot: a
// worker pool scores them, all workers sharing one snapshot-bound
// evaluator, so every result reflects the same graph version while
// writers publish new ones. Workers that miss on one half build it once
// (the in-flight guard of eval.Cache). A deadline that expires answers
// 200 with the errors of the queries it cut short, and counts one
// timeout.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	// A batch-level ?annotate= is the default for queries that do not
	// choose their own; per-query body fields win.
	an, err := mergeAnnotate(r, "")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if an != "" {
		for i := range req.Queries {
			if req.Queries[i].Annotate == "" {
				req.Queries[i].Annotate = an
			}
		}
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	workers := req.Workers
	if workers <= 0 {
		workers = s.workers
	}
	if workers > len(req.Queries) && len(req.Queries) > 0 {
		workers = len(req.Queries)
	}

	tr := traceFrom(r.Context())
	tr.SetBatch(len(req.Queries))

	// Pricing needs only the schema, so the cost ceiling is enforced
	// before a snapshot is pinned: a pathological batch is rejected
	// without ever holding a version open. Annotated queries carry the
	// annotation surcharge on top of the integer cost, per query, so a
	// mixed batch prices only its annotated members at the higher weight.
	if s.adm.MaxCost() > 0 {
		endExpand := tr.Phase("expand")
		cost := eval.EstimateProducts(s.batchPatterns(req.Queries))
		endExpand()
		for i := range req.Queries {
			cost += s.annotationSurcharge(&req.Queries[i])
		}
		if !s.checkCost(w, cost) {
			return
		}
	}

	pin := s.st.Pin()
	defer pin.Release()
	ev := s.evaluator(pin.Snapshot(), pin.Version()).WithContext(ctx)
	tr.SetVersion(pin.Version())

	resp := BatchResponse{Version: pin.Version(), Results: make([]BatchResult, len(req.Queries))}
	endScore := tr.Phase("score")
	jobs := make(chan int)
	var wg sync.WaitGroup
	var timedOut atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res, err := s.safeBatchSearch(ev, &req.Queries[i])
				if err != nil {
					s.obs.queryErrors.Inc()
					var c *eval.Canceled
					if errors.As(err, &c) && errors.Is(c.Err, context.DeadlineExceeded) {
						timedOut.Store(true)
					}
					resp.Results[i] = BatchResult{Error: err.Error()}
				} else {
					resp.Results[i] = BatchResult{SearchResponse: res}
				}
			}
		}()
	}
	for i := range req.Queries {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	endScore()
	tr.SetEval(ev.Counters())
	// One timed-out batch counts once, matching /search's accounting;
	// the response stays 200 so queries that beat the deadline deliver
	// their partial results — the status-based middleware cannot see
	// this, hence the explicit count.
	if timedOut.Load() {
		s.obs.timeouts["batch"].Inc()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// querySet is what one query scores.
type querySet struct {
	// ps is the pattern set scored: the Algorithm-1 expansion E_p
	// (expanded) for the robust "search" pipeline on a simple pattern,
	// otherwise the pattern itself as a singleton.
	ps       []*rre.Pattern
	expanded bool
	// cuts are ps cut for Equation-1 scoring, aligned by index. Scoring
	// reads, and admission prices, their halves: a root M_p is never
	// built.
	cuts []eval.Cut
	used uint64 // expand-memo LRU tick
}

// expandKey keys the query-set memo: the pattern string as the client
// sent it, and whether the request asks for its Algorithm-1 expansion.
type expandKey struct {
	pattern string
	expand  bool
}

// newQuerySet cuts ps into the keys every evaluator reads (eval.NewCut).
func newQuerySet(ps []*rre.Pattern, expanded bool) *querySet {
	qs := &querySet{ps: ps, expanded: expanded, cuts: make([]eval.Cut, len(ps))}
	for i, p := range ps {
		qs.cuts[i] = eval.NewCut(p)
	}
	return qs
}

// reads lists the patterns whose matrices scoring the cuts fetches:
// each term's halves, duplicates included. EstimateProducts prices each
// distinct one once, as the cache builds it.
func reads(cuts ...eval.Cut) []*rre.Pattern {
	out := make([]*rre.Pattern, 0, 2*len(cuts))
	for _, c := range cuts {
		for _, t := range c {
			out = append(out, t.Left)
			if t.RevRight != nil {
				out = append(out, t.RevRight)
			}
		}
	}
	return out
}

// queryPatterns resolves what a query scores; it returns (nil, nil) for
// the pattern-free algorithms. runSearch and the cost ceiling both
// dispatch through it, so admission prices exactly the matrices scoring
// reads.
func (s *Server) queryPatterns(req *SearchRequest) (*querySet, error) {
	if req.Alg == "rwr" || req.Alg == "simrank" {
		return nil, nil
	}
	if req.Pattern == "" {
		alg := req.Alg
		if alg == "" {
			alg = "search"
		}
		return nil, fmt.Errorf("pattern is required for alg %q", alg)
	}
	if req.Alg == "hetesim" {
		// HeteSim splits the pattern its own way; it reads the root.
		p, err := rre.Parse(req.Pattern)
		if err != nil {
			return nil, err
		}
		return &querySet{ps: []*rre.Pattern{p}, cuts: []eval.Cut{{{Left: p}}}}, nil
	}
	return s.memoQuerySet(req.Pattern, (req.Alg == "" || req.Alg == "search") && !req.NoExpand)
}

// memoQuerySet builds the query set of the pattern string raw — its
// Algorithm-1 expansion when expand is set and the pattern is simple,
// the pattern itself otherwise — through the server's memo, so repeated
// queries on the same pattern (one /batch worker after another, or
// request after request) parse, expand, canonicalize and cut once. The
// memo is keyed by raw as the client sent it, so a hit parses nothing;
// two spellings of one pattern take an entry each. The memo is
// LRU-bounded (DefaultExpandCacheLimit): keys are client-supplied
// strings, and without the bound a stream of distinct patterns grows it
// forever.
func (s *Server) memoQuerySet(raw string, expand bool) (*querySet, error) {
	key := expandKey{raw, expand}
	s.expandMu.Lock()
	if ent, ok := s.expand[key]; ok {
		s.expandTick++
		ent.used = s.expandTick
		s.expandHits++
		s.expandMu.Unlock()
		return ent, nil
	}
	s.expandMisses++
	s.expandMu.Unlock()
	p, err := rre.Parse(raw)
	if err != nil {
		return nil, err
	}
	ps := []*rre.Pattern{p}
	if expand = expand && p.IsSimple(); expand {
		if ps, err = pattern.Generate(s.schema, p, pattern.Default()); err != nil {
			return nil, err
		}
	}
	ent := newQuerySet(ps, expand)
	s.expandMu.Lock()
	s.expandTick++
	ent.used = s.expandTick
	s.expand[key] = ent
	for len(s.expand) > s.expandLimit {
		var victim expandKey
		oldest, first := uint64(0), true
		for k, ent := range s.expand {
			if first || ent.used < oldest {
				victim, oldest, first = k, ent.used, false
			}
		}
		delete(s.expand, victim)
		s.expandEvictions++
	}
	s.expandMu.Unlock()
	return ent, nil
}

// batchPatterns collects what the batch's queries read, for the cost
// ceiling to price. Queries whose pattern fails to parse or expand are
// skipped here; the worker reports their error.
func (s *Server) batchPatterns(queries []SearchRequest) []*rre.Pattern {
	var out []*rre.Pattern
	for i := range queries {
		if qs, err := s.queryPatterns(&queries[i]); err == nil && qs != nil {
			out = append(out, reads(qs.cuts...)...)
		}
	}
	return out
}

// searchCost prices one query for the cost ceiling: the products a cold
// cache would perform for the halves scoring reads, plus the witness
// push of an annotated query (annotationSurcharge). A query whose
// pattern does not resolve prices at zero; the handler reports the
// error.
func (s *Server) searchCost(req *SearchRequest) int {
	qs, err := s.queryPatterns(req)
	if err != nil || qs == nil {
		return 0
	}
	return eval.EstimateProducts(reads(qs.cuts...)) + s.annotationSurcharge(req)
}

// explainCost prices an /explain of p: the integer pushes of its
// terms' halves (eval.Evaluator.Pair), which the count and score read,
// plus its witness push at eval.AnnotationCostFactor (pushCost). A
// label chain costs 0.
func explainCost(p *rre.Pattern) int {
	var composites []*rre.Pattern
	for _, h := range reads(eval.NewCut(p)) {
		composites = append(composites, eval.PushReads(h)...)
	}
	return eval.EstimateProducts(composites) + eval.AnnotationCostFactor*pushCost(p)
}

// ExplainRequest is the POST /explain body: explain why From and To
// are similar under Pattern (nodes are names or ids). Annotate, like
// ?annotate=, may be "" or "witness"; every answer carries the witness.
// An unknown field, such as an older client's limit, is ignored.
type ExplainRequest struct {
	Pattern  string `json:"pattern"`
	From     string `json:"from"`
	To       string `json:"to"`
	Annotate string `json:"annotate,omitempty"`
}

// ExplainResponse is the POST /explain body: the instance count
// |I^{u,v}(p)| and the Equation-1 score from the integer pushes of e_u
// and e_v through its terms' halves (eval.Evaluator.Pair), and the
// witness from the witness push of e_u (eval.Evaluator.WitnessRow), nil
// when no instance connects u to v. No cut table is read and no root
// is built.
type ExplainResponse struct {
	Pattern  string       `json:"pattern"`
	FromID   graph.NodeID `json:"from_id"`
	ToID     graph.NodeID `json:"to_id"`
	Count    int64        `json:"count"`
	Score    float64      `json:"score"`
	Version  uint64       `json:"version"`
	Annotate string       `json:"annotate,omitempty"`
	Witness  *WitnessInfo `json:"witness,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req ExplainRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if _, err := mergeAnnotate(r, req.Annotate); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	qs, err := s.memoQuerySet(req.Pattern, false)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	p := qs.ps[0]
	// A push takes the matrices of the pattern's composite factors, so
	// the cost ceiling applies exactly as it does on /search — before
	// the pin. Admission prices the cold worst case, never the
	// hoped-for cache state.
	if s.adm.MaxCost() > 0 && !s.checkCost(w, explainCost(p)) {
		return
	}
	// Explanations evaluate like /search does, so they honor the same
	// deadline: -timeout by default, ?timeout_ms= per request, 504 when
	// it expires.
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()

	pin := s.st.Pin()
	defer pin.Release()
	snap := pin.Snapshot()
	ev := s.evaluator(snap, pin.Version()).WithContext(ctx)

	u, ok := resolveNode(snap, req.From)
	if !ok {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("from node %q not found", req.From))
		return
	}
	v, ok := resolveNode(snap, req.To)
	if !ok {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("to node %q not found", req.To))
		return
	}
	tr := traceFrom(r.Context())
	tr.SetQuery(req.Pattern, req.From+" -> "+req.To, "explain")
	tr.SetVersion(pin.Version())
	endEval := tr.Phase("evaluate")
	resp := ExplainResponse{
		Pattern:  req.Pattern,
		FromID:   u,
		ToID:     v,
		Version:  pin.Version(),
		Annotate: AnnotateWitness,
	}
	// The evaluator is request-fresh, so its product counter counts
	// what the pushes took: nothing, for a label chain.
	err = eval.Guard(func() error {
		resp.Count, resp.Score = ev.Pair(p, u, v)
		if wit, ok := ev.WitnessRow(p, u).At(v); ok {
			resp.Witness = witnessInfo(snap, wit)
		}
		return nil
	})
	if err == nil {
		s.n.explainProjected.Inc()
		if ev.Counters().Products.Load() == 0 {
			s.n.explainWarm.Inc()
		}
	}
	endEval()
	tr.SetEval(ev.Counters())
	if err != nil {
		if !s.writeIfCanceled(w, err) {
			s.writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleLog serves the replication catch-up feed: the committed update
// records with version > ?since= (default 0), up to ?max= records per
// page (default DefaultLogFeedPage, ceiling maxLogFeedPage). The
// response signals a gap — records that have aged out of both the
// bounded in-memory log and (on a durable store) the WAL — via the
// store.Feed contract; a follower seeing gap=true must re-bootstrap
// instead of applying the page.
//
// A ?since= beyond the live version is a 400 with code
// "since_beyond_live", not an empty page: an empty 200 is the normal
// "caught up" answer, and a follower that is somehow ahead of its
// leader (a wiped leader data directory) must be able to tell the two
// apart — silent emptiness would have it polling a diverged leader
// forever. The page honors the server deadline (-timeout /
// ?timeout_ms=) like every evaluation endpoint: a WAL-backed page reads
// segments off disk, and a slow disk must not hold the connection past
// the deadline (504 + timeout counter).
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	since := uint64(0)
	if raw := r.URL.Query().Get("since"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid since %q", raw))
			return
		}
		since = v
	}
	max := DefaultLogFeedPage
	if raw := r.URL.Query().Get("max"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid max %q", raw))
			return
		}
		if v > maxLogFeedPage {
			v = maxLogFeedPage
		}
		max = v
	}
	ctx, cancel, err := s.requestContext(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	// The version only grows, so validating against it up front stays
	// valid for the page read below.
	if live := s.st.Version(); since > live {
		s.writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("since %d is beyond the live version %d", since, live),
			Code:  "since_beyond_live",
		})
		return
	}
	feed, err := s.st.LogFeedContext(ctx, since, max)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.writeError(w, http.StatusGatewayTimeout, err)
		} else {
			s.writeError(w, http.StatusServiceUnavailable, err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, feed)
}

// handleCheckpoint streams the newest checkpoint — the follower
// bootstrap transfer. The body is the line-oriented graph
// serialization; the X-Relsim-Checkpoint-Version header carries the
// version it represents, and a follower Resets onto the pair and tails
// /log from there. ?if_newer_than=v answers 204 without a body when the
// newest checkpoint is at or below v (a durable follower restarting
// with recovered state skips the transfer); ?fresh=1 forces a durable
// store to checkpoint its live version first (an in-memory store always
// streams the live snapshot).
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if raw := r.URL.Query().Get("fresh"); raw == "1" || raw == "true" {
		if s.st.Durable() {
			if err := s.st.Checkpoint(); err != nil {
				s.writeError(w, http.StatusInternalServerError, err)
				return
			}
		}
	}
	if raw := r.URL.Query().Get("if_newer_than"); raw != "" {
		ifNewer, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("invalid if_newer_than %q", raw))
			return
		}
		// Answer the conditional from the cheap version probe — before
		// materializing the stream, which for an in-memory store would
		// serialize the whole graph just to send an empty 204.
		if v := s.st.CheckpointVersion(); v <= ifNewer {
			w.Header().Set(replica.CheckpointVersionHeader, strconv.FormatUint(v, 10))
			w.WriteHeader(http.StatusNoContent)
			return
		}
	}
	rc, version, size, err := s.st.CheckpointReader()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer rc.Close()
	w.Header().Set(replica.CheckpointVersionHeader, strconv.FormatUint(version, 10))
	w.Header().Set("Content-Type", "application/x-ndjson")
	if size >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	}
	w.WriteHeader(http.StatusOK)
	io.Copy(w, rc)
}

// NodeSpec is one node to add.
type NodeSpec struct {
	Name string `json:"name,omitempty"`
	Type string `json:"type,omitempty"`
}

// EdgeSpec is one edge to add or remove; endpoints are display names or
// decimal node ids, and may reference nodes added earlier in the same
// request.
type EdgeSpec struct {
	From  string `json:"from"`
	Label string `json:"label"`
	To    string `json:"to"`
}

// MutationRequest is the POST /graph/edges body. AddNodes apply first,
// then Add, then Remove. The batch commits atomically: on the first
// failing operation the whole batch rolls back — no version is
// published and readers never see partial state.
type MutationRequest struct {
	AddNodes []NodeSpec `json:"add_nodes,omitempty"`
	Add      []EdgeSpec `json:"add,omitempty"`
	Remove   []EdgeSpec `json:"remove,omitempty"`
}

// MutationResponse is the POST /graph/edges body. Version is the
// version the batch committed at (or the unchanged current version when
// the batch failed and rolled back).
type MutationResponse struct {
	Version      uint64         `json:"version"`
	NodesAdded   []graph.NodeID `json:"nodes_added,omitempty"`
	EdgesAdded   int            `json:"edges_added"`
	EdgesRemoved int            `json:"edges_removed"`
	Error        string         `json:"error,omitempty"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if s.replica != nil {
		// A follower's store is written only by the replication tailer;
		// accepting a client mutation would fork it from the leader's
		// history. 403 (not 405: the method is fine, the role is not)
		// with the leader's address so clients can redirect themselves.
		s.writeJSON(w, http.StatusForbidden, errorResponse{
			Error:  "read-only follower: send mutations to the leader",
			Code:   "follower_read_only",
			Leader: s.replica.Leader(),
		})
		return
	}
	var req MutationRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	var resp MutationResponse
	err := s.st.Update(func(tx *store.Tx) error {
		for _, ns := range req.AddNodes {
			resp.NodesAdded = append(resp.NodesAdded, tx.AddNode(ns.Name, ns.Type))
		}
		for _, es := range req.Add {
			u, ok := resolveNode(tx, es.From)
			if !ok {
				return fmt.Errorf("add: from node %q not found", es.From)
			}
			v, ok := resolveNode(tx, es.To)
			if !ok {
				return fmt.Errorf("add: to node %q not found", es.To)
			}
			if err := tx.AddEdge(u, es.Label, v); err != nil {
				return err
			}
			resp.EdgesAdded++
		}
		for _, es := range req.Remove {
			u, ok := resolveNode(tx, es.From)
			if !ok {
				return fmt.Errorf("remove: from node %q not found", es.From)
			}
			v, ok := resolveNode(tx, es.To)
			if !ok {
				return fmt.Errorf("remove: to node %q not found", es.To)
			}
			if err := tx.RemoveEdge(u, es.Label, v); err != nil {
				return err
			}
			resp.EdgesRemoved++
		}
		resp.Version = tx.Version()
		return nil
	})
	if err != nil {
		// Rolled back: no partial counts, no version bump. A durability
		// fault (WAL append/fsync failed) is the server's storage, not the
		// request — 500, so retry logic and 4xx/5xx alerting see it right.
		// A store already closed by graceful shutdown is the expected
		// drain race — 503, the "try another node" answer, never a 500.
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, store.ErrClosed):
			status = http.StatusServiceUnavailable
		case errors.Is(err, store.ErrDurability):
			status = http.StatusInternalServerError
		}
		resp = MutationResponse{Version: s.st.Version(), Error: err.Error()}
		s.writeJSON(w, status, resp)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}
