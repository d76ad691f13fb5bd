// Package httpapi exposes a discovery Engine over HTTP with a small JSON
// API, so a federation member can host its (embedding-only, non-reversible)
// index as a service — the deployment shape the paper's federation setting
// implies.
//
// Endpoints:
//
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text exposition of engine + HTTP metrics
//	GET  /v1/stats              engine statistics (counters, latency quantiles, build phases)
//	POST /v1/search             {"query": "...", "k": 10, "sources": ["WHO"], "trace": true}
//	POST /v1/search/batch       {"queries": [{"query": "...", "k": 10}, ...]} — fused batched execution
//	POST /v1/datasets           {"query": "...", "k": 5}
//	POST /v1/relations          a Relation to index incrementally
//	DELETE /v1/relations/{id}   tombstone a relation (404 when unknown)
//	PUT  /v1/relations/{id}     replace a relation's contents in place
//	GET  /v1/debug/slow         slow-query log with per-stage traces (?n=20, max 100)
//	GET  /v1/debug/index        index health: HNSW graphs, PQ distortion, cluster balance
//	GET  /v1/debug/recall       online recall probe vs exhaustive scan (?k=10, max 50)
//	GET  /v1/debug/journal      slow/sampled query trace journal as JSON lines (?n limits)
//	GET  /v1/debug/traces       retained traces, newest first (?n=20, ?format=jsonl)
//	GET  /v1/debug/traces/{id}  one retained trace rendered as a span tree
//	GET  /v1/debug/workload     workload analytics: heavy hitters, shard load skew, costliest queries
//	GET  /v1/debug/slo          SLO burn rates per objective and window, with alert states
//	GET  /debug/pprof/          runtime profiles (only with WithPprof)
//
// A server runs in one of two modes. Engine mode (New) fronts one Engine
// and additionally mounts the internal encoded-search endpoints (POST
// /internal/v1/search/encoded and .../encoded/batch): a networked-cluster
// coordinator that already embedded the query posts the raw vector, so
// shards never re-encode. Federated mode fronts a semdisco.Cluster and
// answers the public API by scatter-gather — over in-process shards
// (NewCluster) or over replica sets of shard servers (NewCoordinator).
//
// Every request runs under a W3C trace context: an inbound traceparent
// header is continued, otherwise a trace ID is minted; the ID is stamped
// on the X-Trace-Id and Traceparent response headers and correlates the
// access log, the slow-query log and the stored span trees. An inbound
// X-Request-Id (defaulting to the trace ID) rides along the same way.
//
// Every non-2xx response carries an ErrorResponse JSON body, including
// wrong-method (405) and unknown-route (404) requests. When a logger is
// attached (WithLogger), each request is logged with method, path, status,
// duration, trace and request IDs and — for search requests — query
// length and k.
package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"semdisco"
	"semdisco/internal/netcluster"
	"semdisco/internal/obs"
)

// Server wraps an Engine or a federated Cluster with HTTP handlers. Both
// backends synchronize internally — searches run concurrently with adds,
// deletes and updates — so the server adds no lock of its own.
type Server struct {
	probeMu sync.Mutex // at most one recall probe at a time
	eng     *semdisco.Engine
	// cluster is set instead of eng in federated mode. Engine-only
	// surfaces (datasets, the index and recall debug endpoints) respond
	// 501 there.
	cluster *semdisco.Cluster
	// clusterStats fills the federated backend's section of /v1/stats.
	clusterStats func(*StatsResponse)
	mux          *http.ServeMux
	log          *slog.Logger  // nil: request logging off
	reg          *obs.Registry // engine registry; nil when metrics are disabled
	start        time.Time
}

// Option configures a Server.
type Option func(*Server)

// WithLogger enables structured request logging through l.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithPprof mounts net/http/pprof under /debug/pprof/, so a live server
// can be CPU- and heap-profiled with `go tool pprof`.
func WithPprof() Option {
	return func(s *Server) {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// New builds a Server around an engine. Alongside the public API the
// server mounts the internal encoded-search endpoints (see
// semdisco/internal/netcluster): a coordinator that has already embedded a
// query POSTs the raw vector here, so the shard never re-encodes. They are
// what make an ordinary engine server usable as one shard of a networked
// cluster.
func New(eng *semdisco.Engine, opts ...Option) *Server {
	s := &Server{eng: eng, reg: eng.MetricsRegistry()}
	s.init(opts)
	sh := netcluster.NewShardHandler(eng.EncodedBackend(), eng.Traces(), eng.Dim())
	s.mux.Handle(netcluster.PathEncodedSearch, sh)
	s.mux.Handle(netcluster.PathEncodedSearchBatch, sh)
	return s
}

// NewCluster builds a Server around a sharded cluster: /v1/search answers
// by scatter-gather (with degradation metadata in the response), /v1/stats
// reports per-shard health, /v1/relations routes adds to shards.
func NewCluster(cl *semdisco.Cluster, opts ...Option) *Server {
	return newFederated(cl, func(r *StatsResponse) {
		cs := cl.Stats()
		r.Cluster = &cs
	}, opts)
}

// newFederated builds a federated-mode Server around cl.
func newFederated(cl *semdisco.Cluster, stats func(*StatsResponse), opts []Option) *Server {
	s := &Server{cluster: cl, clusterStats: stats, reg: cl.MetricsRegistry()}
	s.init(opts)
	return s
}

func (s *Server) init(opts []Option) {
	s.mux = http.NewServeMux()
	s.start = time.Now()
	route := func(method, path string, h http.HandlerFunc) {
		s.mux.HandleFunc(method+" "+path, h)
		// The method-less fallback catches wrong-method requests, which
		// would otherwise get the mux's plain-text 405.
		s.mux.HandleFunc(path, s.methodNotAllowed(method))
	}
	route("GET", "/healthz", s.handleHealth)
	route("GET", "/metrics", s.handleMetrics)
	route("GET", "/v1/stats", s.handleStats)
	route("POST", "/v1/search", s.handleSearch)
	route("POST", "/v1/search/batch", s.handleSearchBatch)
	route("POST", "/v1/datasets", s.handleDatasets)
	route("POST", "/v1/relations", s.handleAddRelation)
	s.mux.HandleFunc("DELETE /v1/relations/{id}", s.handleDeleteRelation)
	s.mux.HandleFunc("PUT /v1/relations/{id}", s.handleUpdateRelation)
	s.mux.HandleFunc("/v1/relations/{id}", s.methodNotAllowed("DELETE, PUT"))
	route("GET", "/v1/debug/slow", s.handleDebugSlow)
	route("GET", "/v1/debug/index", s.handleDebugIndex)
	route("GET", "/v1/debug/recall", s.handleDebugRecall)
	route("GET", "/v1/debug/journal", s.handleDebugJournal)
	route("GET", "/v1/debug/traces", s.handleDebugTraces)
	route("GET", "/v1/debug/traces/{id}", s.handleDebugTrace)
	route("GET", "/v1/debug/workload", s.handleDebugWorkload)
	route("GET", "/v1/debug/slo", s.handleDebugSLO)
	s.mux.HandleFunc("/", s.handleNotFound)
	for _, opt := range opts {
		opt(s)
	}
}

// logAttrs is the per-request annotation bag handlers append to (query
// length, k) so the access log line carries request-specific detail.
type logAttrs struct {
	mu    sync.Mutex
	attrs []slog.Attr
}

type logAttrsKey struct{}

// annotate attaches request detail to the access log line.
func annotate(r *http.Request, attrs ...slog.Attr) {
	bag, ok := r.Context().Value(logAttrsKey{}).(*logAttrs)
	if !ok {
		return
	}
	bag.mu.Lock()
	bag.attrs = append(bag.attrs, attrs...)
	bag.mu.Unlock()
}

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// ServeHTTP implements http.Handler: trace propagation + metrics + logging
// middleware around the mux. Every request runs under a W3C trace context —
// the inbound traceparent header's when one parses, a freshly minted one
// otherwise — and under a correlation ID (inbound X-Request-Id, defaulting
// to the trace ID). Both are stamped on the response headers (X-Trace-Id,
// Traceparent, X-Request-Id), threaded through the request context into
// the engine's trace store and slow-query log, and attached to the access
// log line, so one grep joins the log, the slow log, the journal and the
// stored span tree.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	bag := &logAttrs{}
	ctx := context.WithValue(r.Context(), logAttrsKey{}, bag)

	sc, ok := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !ok {
		// No (or malformed) inbound context: this request starts the trace,
		// with the server itself as the root span's remote parent.
		sc = obs.SpanContext{TraceID: obs.NewTraceID(), SpanID: obs.NewSpanID(), Flags: obs.FlagSampled}
	}
	requestID := r.Header.Get("X-Request-Id")
	if requestID == "" {
		requestID = sc.TraceID.String()
	}
	ctx = obs.ContextWithSpan(ctx, sc)
	ctx = obs.ContextWithRequestID(ctx, requestID)
	r = r.WithContext(ctx)

	hdr := sw.Header()
	hdr.Set("X-Trace-Id", sc.TraceID.String())
	hdr.Set("Traceparent", sc.Traceparent())
	hdr.Set("X-Request-Id", requestID)

	s.mux.ServeHTTP(sw, r)

	elapsed := time.Since(start)
	_, pattern := s.mux.Handler(r)
	if pattern == "" {
		pattern = "unmatched"
	}
	s.reg.Counter(obs.L("semdisco_http_requests_total",
		"path", pattern, "code", strconv.Itoa(sw.status))).Inc()
	s.reg.Histogram(obs.L("semdisco_http_request_seconds", "path", pattern)).Observe(elapsed)

	if s.log != nil {
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("duration", elapsed),
			slog.String("trace_id", sc.TraceID.String()),
			slog.String("request_id", requestID),
		}
		bag.mu.Lock()
		attrs = append(attrs, bag.attrs...)
		bag.mu.Unlock()
		level := slog.LevelInfo
		if sw.status >= 500 {
			level = slog.LevelError
		} else if sw.status >= 400 {
			level = slog.LevelWarn
		}
		s.log.LogAttrs(r.Context(), level, "request", attrs...)
	}
}

// SearchRequest is the body of /v1/search and /v1/datasets.
type SearchRequest struct {
	Query string `json:"query"`
	K     int    `json:"k"`
	// Sources optionally restricts the search to federation members.
	Sources []string `json:"sources,omitempty"`
	// Trace asks for the per-stage breakdown of this query in the
	// response. Ignored when Sources is set (filtered searches are not
	// traced).
	Trace bool `json:"trace,omitempty"`
}

// TraceJSON is the per-request stage breakdown returned when the search
// request set "trace": true.
type TraceJSON struct {
	TotalMS float64               `json:"total_ms"`
	Stages  []semdisco.TraceStage `json:"stages"`
}

// SearchResponse is the body returned by /v1/search. The cluster-mode
// fields report federated-query health: a degraded answer covers only the
// healthy shards' partitions.
type SearchResponse struct {
	Matches []MatchJSON `json:"matches"`
	// TraceID is the hex trace ID the query ran under (also on the
	// X-Trace-Id response header). When the outcome was interesting — slow,
	// degraded, hedged, errored, or head-sampled — the full span tree is
	// retrievable at /v1/debug/traces/{trace_id}.
	TraceID string     `json:"trace_id,omitempty"`
	Trace   *TraceJSON `json:"trace,omitempty"`
	// Degraded is set in cluster mode when one or more shards failed or
	// timed out; ShardErrors names them.
	Degraded    bool     `json:"degraded,omitempty"`
	ShardErrors []string `json:"shard_errors,omitempty"`
	// CacheHit reports the answer came from the cluster's query cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Cost is the query's work accounting: distance computations, graph
	// hops, PQ table lookups, values/bytes scanned, candidate counts. In
	// cluster mode it is the sum across every shard attempt.
	Cost *semdisco.CostReport `json:"cost,omitempty"`
}

// MatchJSON is one relation match.
type MatchJSON struct {
	RelationID string  `json:"relation_id"`
	Score      float32 `json:"score"`
}

// DatasetJSON is one dataset match.
type DatasetJSON struct {
	Source    string      `json:"source"`
	Score     float32     `json:"score"`
	Relations []MatchJSON `json:"relations"`
}

// DatasetsResponse is the body returned by /v1/datasets.
type DatasetsResponse struct {
	Datasets []DatasetJSON `json:"datasets"`
}

// StatsResponse is the body returned by /v1/stats: the engine's full
// observability snapshot plus server uptime. In cluster mode Cluster
// carries per-shard health (relation counts, searches, errors, timeouts,
// hedges, latency quantiles) and the query-cache counters.
type StatsResponse struct {
	semdisco.EngineStats
	Cluster *semdisco.ClusterStats `json:"cluster,omitempty"`
	// Netcluster carries coordinator-mode health: the federated router view
	// plus each replica set's failover counters.
	Netcluster    *semdisco.NetCoordinatorStats `json:"netcluster,omitempty"`
	UptimeSeconds float64                       `json:"uptime_seconds"`
}

// ErrorResponse is the unified error shape every non-2xx response on this
// server carries: {"error": <human detail>, "code": <machine class>}. The
// code is derived from the status (bad_request, not_found,
// method_not_allowed, too_many_requests, not_implemented, internal,
// unavailable) and matches the internal wire protocol's error bodies, so a
// coordinator classifies local and remote failures identically.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// codeForStatus maps an HTTP status to the unified machine-readable error
// code (netcluster.Code*).
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return netcluster.CodeBadRequest
	case http.StatusNotFound:
		return netcluster.CodeNotFound
	case http.StatusMethodNotAllowed:
		return netcluster.CodeMethodNotAllowed
	case http.StatusTooManyRequests:
		return netcluster.CodeTooManyRequests
	case http.StatusNotImplemented:
		return netcluster.CodeNotImplemented
	case http.StatusServiceUnavailable:
		return netcluster.CodeUnavailable
	default:
		if status >= 500 {
			return netcluster.CodeInternal
		}
		return netcluster.CodeBadRequest
	}
}

// writeError writes the unified error body for a non-2xx status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg, Code: codeForStatus(status)})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the Prometheus text exposition. Scrapers accepting
// OpenMetrics get that format instead, with histogram bucket exemplars
// linking latency spikes to stored trace IDs — exemplar syntax is not
// valid in the plain 0.0.4 format, so it only appears when negotiated.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{UptimeSeconds: time.Since(s.start).Seconds()}
	if s.cluster != nil {
		s.clusterStats(&resp)
		resp.Method = s.cluster.Method().String()
		resp.NumRelations = s.cluster.NumRelations()
	} else {
		resp.EngineStats = s.eng.Stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeSearch(w, r)
	if !ok {
		return
	}
	if s.cluster != nil {
		s.clusterSearch(w, r, req)
		return
	}
	var (
		matches []semdisco.Match
		stages  []semdisco.TraceStage
		cost    *semdisco.CostReport
		err     error
	)
	switch {
	case len(req.Sources) > 0:
		matches, err = s.eng.SearchSources(req.Query, req.K, req.Sources...)
	case req.Trace:
		matches, stages, err = s.eng.SearchTracedContext(r.Context(), req.Query, req.K)
	default:
		var rep semdisco.CostReport
		matches, rep, err = s.eng.SearchCost(r.Context(), req.Query, req.K)
		cost = &rep
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := SearchResponse{Matches: matchesJSON(matches), Cost: cost, Trace: traceJSON(stages)}
	if sc, ok := obs.SpanContextFrom(r.Context()); ok && len(req.Sources) == 0 {
		// Engine searches continue the middleware's span context, so its
		// trace ID is the one the stored trace carries. Source-filtered
		// searches are not traced.
		resp.TraceID = sc.TraceID.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

// traceJSON totals a per-stage breakdown for the response; nil without one.
func traceJSON(stages []semdisco.TraceStage) *TraceJSON {
	if stages == nil {
		return nil
	}
	t := &TraceJSON{Stages: stages}
	for _, st := range stages {
		t.TotalMS += st.DurationMS
	}
	return t
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeSearch(w, r)
	if !ok {
		return
	}
	if !s.requireEngine(w) {
		return
	}
	datasets, err := s.eng.SearchDatasets(req.Query, req.K)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := DatasetsResponse{Datasets: make([]DatasetJSON, len(datasets))}
	for i, d := range datasets {
		dj := DatasetJSON{Source: d.Source, Score: d.Score}
		for _, m := range d.Relations {
			dj.Relations = append(dj.Relations, MatchJSON{RelationID: m.RelationID, Score: m.Score})
		}
		resp.Datasets[i] = dj
	}
	writeJSON(w, http.StatusOK, resp)
}

// RelationJSON is the body of the ingest and update endpoints: a
// semdisco.Relation in the same JSON form a coordinator replicates.
type RelationJSON = netcluster.Relation

func (s *Server) handleAddRelation(w http.ResponseWriter, r *http.Request) {
	var rel RelationJSON
	if err := json.NewDecoder(r.Body).Decode(&rel); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return
	}
	annotate(r, slog.String("relation", rel.ID))
	if err := s.add(r.Context(), rel.Table()); err != nil {
		writeBackendError(w, err, http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"status": "indexed", "id": rel.ID})
}

// handleDeleteRelation tombstones one relation by ID. The slot's vectors
// stay in place until background compaction reclaims them, but the
// relation stops appearing in results immediately. Unknown IDs get 404.
func (s *Server) handleDeleteRelation(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	annotate(r, slog.String("relation", id))
	var err error
	if s.cluster != nil {
		err = s.cluster.DeleteContext(r.Context(), id)
	} else {
		err = s.eng.Delete(id)
	}
	if err != nil {
		writeBackendError(w, err, http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted", "id": id})
}

func (s *Server) methodNotAllowed(allow string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		writeError(w, http.StatusMethodNotAllowed, fmt.Sprintf("method %s not allowed; use %s", r.Method, allow))
	}
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, fmt.Sprintf("no such route %s", r.URL.Path))
}

func decodeSearch(w http.ResponseWriter, r *http.Request) (SearchRequest, bool) {
	var req SearchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad body: %v", err))
		return req, false
	}
	if req.Query == "" {
		writeError(w, http.StatusBadRequest, "query is required")
		return req, false
	}
	if req.K <= 0 {
		req.K = 10
	}
	if req.K > 1000 {
		req.K = 1000
	}
	annotate(r, slog.Int("query_len", len(req.Query)), slog.Int("k", req.K))
	return req, true
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
