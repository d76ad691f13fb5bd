// Package cluster is the sharded query-federation layer: a Router that
// owns N shards (each a core-level search engine over a corpus partition),
// routes relations to shards at build and add time, and answers queries by
// scatter-gather — encode once, fan out concurrently, merge per-shard
// top-k′ into a global top-k with deterministic tie-breaking.
//
// The layer exists so per-query work can be bounded and parallelized the
// way large-scale vector-set search systems (DESSERT, KOIOS) bound theirs:
// instead of one monolithic index, each shard scans or walks only its
// slice, and the router absorbs the operational failure modes of fan-out —
// per-shard deadlines interrupt straggler work (context threaded down to
// the scan/hop level), hedged retries race a second attempt against a
// shard running past its p95, and a shard that still fails degrades the
// answer to the healthy shards' results, annotated rather than discarded.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"semdisco/internal/cache"
	"semdisco/internal/core"
	"semdisco/internal/obs"
	"semdisco/internal/par"
)

// Metric series recorded by the Router. Per-shard series carry a
// shard="<index>" label.
const (
	// MetricSearches counts completed cluster searches.
	MetricSearches = "semdisco_cluster_searches_total"
	// MetricSearchSeconds is end-to-end federated query latency, the
	// cluster-level histogram trace exemplars attach to.
	MetricSearchSeconds = "semdisco_cluster_search_seconds"
	// MetricShardSearchSeconds is per-shard search latency.
	MetricShardSearchSeconds = "semdisco_cluster_shard_search_seconds"
	// MetricShardErrors counts failed shard searches, timeouts included.
	MetricShardErrors = "semdisco_cluster_shard_errors_total"
	// MetricShardTimeouts counts shard searches that hit the per-shard
	// deadline.
	MetricShardTimeouts = "semdisco_cluster_shard_timeouts_total"
	// MetricHedges counts hedge attempts launched against slow shards.
	MetricHedges = "semdisco_cluster_hedges_total"
	// MetricHedgeWins counts hedges that beat their primary.
	MetricHedgeWins = "semdisco_cluster_hedge_wins_total"
	// MetricDegraded counts searches answered from a strict subset of
	// shards.
	MetricDegraded = "semdisco_cluster_degraded_total"
	// MetricCacheHits / MetricCacheMisses track the query-result cache.
	MetricCacheHits   = "semdisco_cluster_cache_hits_total"
	MetricCacheMisses = "semdisco_cluster_cache_misses_total"
	// MetricCacheHitSeconds is the latency of cache-served searches. Cache
	// hits land here instead of MetricSearchSeconds so the end-to-end
	// latency histogram — and every p95 estimate derived from it — keeps
	// describing real scatter-gather work rather than being dragged toward
	// zero by memory lookups.
	MetricCacheHitSeconds = "semdisco_cluster_cache_hit_seconds"
	// MetricCoalesced counts searches answered by riding a concurrent
	// identical in-flight search instead of scattering their own.
	MetricCoalesced = "semdisco_cluster_coalesced_total"
	// MetricBatchSearches counts SearchBatch fan-outs (one per batch, not
	// per query; the queries inside still count into MetricSearches).
	MetricBatchSearches = "semdisco_cluster_batch_searches_total"
	// MetricBatchQueries counts queries answered through SearchBatch.
	MetricBatchQueries = "semdisco_cluster_batch_queries_total"
)

// MetricHelp maps the router's metric base names to their Prometheus
// HELP texts; NewRouter registers them on the registry it is given.
var MetricHelp = map[string]string{
	MetricSearches:           "Completed cluster searches.",
	MetricSearchSeconds:      "End-to-end federated query latency in seconds.",
	MetricShardSearchSeconds: "Per-shard search latency in seconds.",
	MetricShardErrors:        "Failed shard searches, timeouts included.",
	MetricShardTimeouts:      "Shard searches that hit the per-shard deadline.",
	MetricHedges:             "Hedge attempts launched against slow shards.",
	MetricHedgeWins:          "Hedge attempts that beat their primary.",
	MetricDegraded:           "Searches answered from a strict subset of shards.",
	MetricCacheHits:          "Query-result cache hits.",
	MetricCacheMisses:        "Query-result cache misses.",
	MetricCacheHitSeconds:    "Latency of cache-served searches in seconds.",
	MetricCoalesced:          "Searches coalesced onto a concurrent identical in-flight search.",
	MetricBatchSearches:      "Batched scatter-gather fan-outs.",
	MetricBatchQueries:       "Queries answered through the batch path.",
}

// Policy selects how relations are assigned to shards.
type Policy int

const (
	// PolicyHash routes each relation by a hash of its ID: stateless,
	// stable under reloads, and the same relation always lands on the same
	// shard regardless of insertion order.
	PolicyHash Policy = iota
	// PolicyRoundRobin deals relations out in arrival order at build time
	// and routes later Adds to the currently smallest shard, keeping the
	// partition balanced as the corpus grows (rebalance-aware routing).
	PolicyRoundRobin
)

func (p Policy) String() string {
	switch p {
	case PolicyHash:
		return "hash"
	case PolicyRoundRobin:
		return "round-robin"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// HashShard returns the shard index a relation ID maps to under PolicyHash
// (FNV-1a, mod n). Exported so build-time assignment and add-time routing
// agree by construction.
func HashShard(id string, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return int(h % uint32(n))
}

// Shard is one partition's search engine: rank the shard's relations for a
// pre-encoded query vector, honoring ctx. core.ExS/ANNS/CTS satisfy it via
// SearchEncoded.
type Shard interface {
	SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, error)
}

// Options configures a Router.
type Options struct {
	// Policy selects the partitioning scheme; default PolicyHash.
	Policy Policy
	// Slack widens the per-shard fetch: each shard returns its top k+Slack
	// and the router merges down to k. Exact methods (ExS) need no slack —
	// the global top-k is a subset of the shards' top-k — but approximate
	// shards benefit from the extra margin. Default 8.
	Slack int
	// ShardTimeout is the per-shard deadline; a shard still running when it
	// expires is interrupted mid-scan and reported as a timeout. 0 disables.
	ShardTimeout time.Duration
	// Hedge enables hedged retries: when a shard runs past its observed p95
	// latency, a second attempt is raced against the first and the earlier
	// answer wins. Hedging needs HedgeAfter recorded latencies per shard
	// before it arms.
	Hedge bool
	// MinHedgeDelay floors the hedge trigger so cold p95 estimates cannot
	// hedge instantly. Default 1ms.
	MinHedgeDelay time.Duration
	// HedgeAfter is how many successful searches a shard must have before
	// its p95 is trusted for hedging. Default 16.
	HedgeAfter int
	// Method labels metrics and stats ("ExS", "CTS", …).
	Method string
	// Encode embeds a query string once; the vector fans out to all shards.
	Encode func(query string) []float32
	// Order maps a relation ID to its global rank (federation insertion
	// order). Merged results tie-break on it, which makes the merged
	// ranking bit-identical to the single-engine ranking for ExS — the
	// single engine breaks score ties by ascending relation index.
	Order func(relID string) int
	// CacheSize bounds the (query, k) → results LRU; 0 disables caching.
	CacheSize int
	// Registry receives the router's metrics; nil disables them.
	Registry *obs.Registry
	// Workload, when non-nil, receives one per-shard load observation per
	// shard attempt, feeding the load-skew (Gini) gauge.
	Workload *obs.Workload
	// SegmentInfo, when non-nil, reports a shard's segment count and
	// tombstoned-relation count for Stats.
	SegmentInfo func(shard int) (segments, tombstoned int)
}

// ShardError is one shard's failure during a scatter-gather query.
type ShardError struct {
	Shard int
	Err   error
}

func (e ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e ShardError) Unwrap() error { return e.Err }

// Result is one scatter-gather answer plus its health metadata.
type Result struct {
	// Matches is the merged global top-k.
	Matches []core.Match
	// TraceID is the hex trace ID the query ran under, "" when untraced.
	// Interesting outcomes (degraded, hedged, errored, slow) are retained
	// in the owning layer's trace store under this ID.
	TraceID string
	// Degraded reports that at least one shard failed or timed out and
	// Matches covers only the healthy shards' partitions.
	Degraded bool
	// ShardErrors lists the failed shards, ascending by shard index.
	ShardErrors []ShardError
	// Hedged counts hedge attempts launched for this query.
	Hedged int
	// CacheHit reports the answer came from the query-result cache.
	CacheHit bool
	// Coalesced reports the answer was shared from a concurrent identical
	// in-flight search (same query, same k): this request scattered no
	// work of its own, so its Cost is empty.
	Coalesced bool
	// Cost aggregates the work every shard attempt performed for this
	// query. A cache hit reports only CacheHits: 1 — no index work ran.
	Cost obs.CostReport
	// ShardCosts is the per-shard breakdown, indexed by shard; failed
	// shards report the work their failing attempt still performed.
	ShardCosts []obs.CostReport
}

// cacheKey identifies one cacheable query. The method is part of the
// router's identity, not the key: one router serves one method.
type cacheKey struct {
	query string
	k     int
}

// shardState is the router's per-shard bookkeeping: counters for stats and
// the latency window behind the hedge trigger.
type shardState struct {
	searches atomic.Int64
	errors   atomic.Int64
	timeouts atomic.Int64
	hedges   atomic.Int64
	lat      *latencyWindow
}

// inflightCall is one in-progress scatter-gather that concurrent identical
// requests can ride. done is closed after res/err are set and the call is
// unregistered, so a woken follower can never re-join a finished call.
type inflightCall struct {
	done chan struct{}
	res  *Result
	err  error
	// gen is the router's mutation generation when the leader scattered. A
	// follower arriving after a mutation must not ride this call: the
	// leader's answer may predate a delete.
	gen uint64
	// waiters counts followers parked on done; tests use it to pin the
	// exactly-one-scan contract without sleeping.
	waiters atomic.Int64
}

// Router fans queries out over N shards and merges their answers. Search
// is safe for concurrent use; Route/NoteAdd (the add path) must not race
// with the owning layer's shard mutation, mirroring Engine.Add's contract.
type Router struct {
	shards []Shard
	opts   Options
	state  []*shardState
	reg    *obs.Registry
	cache  *cache.LRU[cacheKey, []core.Match]
	// inflight coalesces concurrent identical (query, k) searches onto one
	// scatter (singleflight); guarded by inflightMu.
	inflightMu sync.Mutex
	inflight   map[cacheKey]*inflightCall
	// relCount[i] tracks shard i's relation count for rebalance-aware
	// routing; degraded counts stats queries, not correctness.
	relCount []atomic.Int64
	searches atomic.Int64
	degraded atomic.Int64
	// mutGen counts corpus mutations (add, delete, update). It fences both
	// staleness channels a mutation opens: the result cache (purged, and a
	// scatter that started before the mutation refuses to populate it) and
	// the singleflight coalescer (a follower never rides a leader that
	// scattered under an older generation).
	mutGen atomic.Uint64
}

// NewRouter builds a Router over pre-built shards. relCounts mirrors each
// shard's relation count (used by round-robin rebalance routing and
// Stats); len(relCounts) must equal len(shards).
func NewRouter(shards []Shard, relCounts []int, opts Options) (*Router, error) {
	if len(shards) == 0 {
		return nil, errors.New("cluster: at least one shard required")
	}
	if len(relCounts) != len(shards) {
		return nil, fmt.Errorf("cluster: %d shards but %d relation counts", len(shards), len(relCounts))
	}
	if opts.Encode == nil {
		return nil, errors.New("cluster: Options.Encode is required")
	}
	if opts.Order == nil {
		return nil, errors.New("cluster: Options.Order is required")
	}
	if opts.Slack == 0 {
		opts.Slack = 8
	}
	if opts.MinHedgeDelay == 0 {
		opts.MinHedgeDelay = time.Millisecond
	}
	if opts.HedgeAfter == 0 {
		opts.HedgeAfter = 16
	}
	r := &Router{
		shards:   shards,
		opts:     opts,
		state:    make([]*shardState, len(shards)),
		reg:      opts.Registry,
		inflight: make(map[cacheKey]*inflightCall),
		relCount: make([]atomic.Int64, len(shards)),
	}
	r.reg.SetHelps(MetricHelp)
	for i := range r.state {
		r.state[i] = &shardState{lat: newLatencyWindow(latencyWindowSize)}
		r.relCount[i].Store(int64(relCounts[i]))
	}
	if opts.CacheSize > 0 {
		r.cache = cache.New[cacheKey, []core.Match](opts.CacheSize)
	}
	return r, nil
}

// NumShards reports the shard count.
func (r *Router) NumShards() int { return len(r.shards) }

// Route returns the shard index a new relation should be added to: the
// hash bucket under PolicyHash, the currently smallest shard (ties to the
// lowest index) under PolicyRoundRobin.
func (r *Router) Route(relID string) int {
	if r.opts.Policy == PolicyHash {
		return HashShard(relID, len(r.shards))
	}
	best, bestN := 0, r.relCount[0].Load()
	for i := 1; i < len(r.shards); i++ {
		if n := r.relCount[i].Load(); n < bestN {
			best, bestN = i, n
		}
	}
	return best
}

// NoteAdd records that one relation landed on shard i and fences both
// staleness channels (result cache, coalescer).
func (r *Router) NoteAdd(i int) {
	r.relCount[i].Add(1)
	r.NoteMutation()
}

// NoteDelete records that one relation left shard i and fences both
// staleness channels (result cache, coalescer).
func (r *Router) NoteDelete(i int) {
	r.relCount[i].Add(-1)
	r.NoteMutation()
}

// NoteUpdate records an in-place replacement on shard i: counts are
// unchanged, but every cached or in-flight ranking is stale.
func (r *Router) NoteUpdate(i int) { r.NoteMutation() }

// NoteMutation advances the mutation generation and purges the result
// cache. Scatters already in flight see the generation change and refuse
// to (a) serve followers or (b) repopulate the cache with pre-mutation
// rankings.
func (r *Router) NoteMutation() {
	r.mutGen.Add(1)
	if r.cache != nil {
		r.cache.Purge()
	}
}

// Search answers a query by scatter-gather over all shards. See
// SearchTraced for the trace-carrying variant.
func (r *Router) Search(ctx context.Context, query string, k int) (*Result, error) {
	return r.SearchTraced(ctx, query, k, nil)
}

// SearchTraced is Search with the span tree of the federated query
// recorded on tr: encode → scatter → merge, with one child span under
// scatter per shard attempt (hedge retries included), each annotated with
// its shard index, attempt kind and failure detail. The scatter span
// itself is annotated with shard count, failures and hedges. The error
// return is reserved for total failure — the parent context expiring, or
// every shard failing; partial failure returns a degraded Result instead.
func (r *Router) SearchTraced(ctx context.Context, query string, k int, tr *obs.Trace) (*Result, error) {
	if k <= 0 {
		return &Result{}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	key := cacheKey{query: query, k: k}
	if res, ok := r.cacheLookup(ctx, key, start); ok {
		return res, nil
	}

	// Singleflight coalescing: if an identical (query, k) search is already
	// scattering, ride it instead of duplicating the fan-out. The loop
	// re-checks after a leader fails — its deadline may have expired while
	// ours is still live, in which case we become (or follow) a new leader.
	for {
		r.inflightMu.Lock()
		if c, ok := r.inflight[key]; ok {
			if c.gen != r.mutGen.Load() {
				// The corpus mutated after the leader scattered; its answer
				// would resurrect a deleted relation or miss a new one.
				// Scatter independently against the current state.
				r.inflightMu.Unlock()
				return r.searchScatter(ctx, query, k, tr, start, key)
			}
			c.waiters.Add(1)
			r.inflightMu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if c.err == nil {
				r.reg.Counter(MetricCoalesced).Inc()
				r.searches.Add(1)
				r.reg.Counter(MetricSearches).Inc()
				res := *c.res // shallow copy of the shared result
				res.Matches = cloneMatches(c.res.Matches)
				res.Coalesced = true
				// The leader did the work; this request scattered nothing.
				res.Cost = obs.CostReport{}
				res.ShardCosts = nil
				return &res, nil
			}
			continue
		}
		c := &inflightCall{done: make(chan struct{}), gen: r.mutGen.Load()}
		r.inflight[key] = c
		r.inflightMu.Unlock()

		res, err := r.searchScatter(ctx, query, k, tr, start, key)
		c.err = err
		if res != nil {
			// Followers copy from their own snapshot: the caller owns res
			// and may annotate it (e.g. its TraceID) while they read.
			shared := *res
			c.res = &shared
		}
		r.inflightMu.Lock()
		delete(r.inflight, key)
		r.inflightMu.Unlock()
		close(c.done)
		return res, err
	}
}

// cacheLookup serves a query from the result cache when possible,
// recording the cache metrics either way (when caching is enabled).
func (r *Router) cacheLookup(ctx context.Context, key cacheKey, start time.Time) (*Result, bool) {
	if r.cache == nil {
		return nil, false
	}
	cached, ok := r.cache.Get(key)
	if !ok {
		r.reg.Counter(MetricCacheMisses).Inc()
		return nil, false
	}
	r.reg.Counter(MetricCacheHits).Inc()
	r.searches.Add(1)
	r.reg.Counter(MetricSearches).Inc()
	// Cache hits get their own latency series; folding their near-zero
	// durations into MetricSearchSeconds would drag the end-to-end p95
	// below what any scatter-gather actually costs.
	r.reg.Histogram(MetricCacheHitSeconds).Observe(time.Since(start))
	res := &Result{Matches: cloneMatches(cached), CacheHit: true, Cost: obs.CostReport{CacheHits: 1}}
	obs.CostFrom(ctx).AddCacheHits(1)
	return res, true
}

// searchScatter is the uncached, uncoalesced scatter-gather body of one
// federated query: encode → fan out → merge → record.
func (r *Router) searchScatter(ctx context.Context, query string, k int, tr *obs.Trace, start time.Time, key cacheKey) (*Result, error) {
	startGen := r.mutGen.Load()
	sp := tr.StartSpan("encode")
	q := r.opts.Encode(query)
	sp.End()

	n := len(r.shards)
	kPrime := k + r.opts.Slack
	type shardOut struct {
		matches []core.Match
		cost    obs.CostReport
		err     error
		hedged  bool
	}
	outs := make([]shardOut, n)
	sp = tr.StartSpan("scatter").
		AnnotateInt("shards", n).
		AnnotateInt("k_prime", kPrime)
	par.Each(n, n, func(i int) {
		outs[i].matches, outs[i].cost, outs[i].err, outs[i].hedged = r.searchShard(ctx, sp, i, q, kPrime)
	})

	res := &Result{ShardCosts: make([]obs.CostReport, n)}
	perShard := make([][]core.Match, 0, n)
	for i := range outs {
		res.ShardCosts[i] = outs[i].cost
		res.Cost.Add(outs[i].cost)
		if outs[i].hedged {
			res.Hedged++
		}
		if outs[i].err != nil {
			res.ShardErrors = append(res.ShardErrors, ShardError{Shard: i, Err: outs[i].err})
			continue
		}
		perShard = append(perShard, outs[i].matches)
	}
	// Fold the aggregate into a caller-provided accumulator, so a layer
	// above the router (or a test) can account federated work uniformly.
	obs.CostFrom(ctx).AddReport(res.Cost)
	sp.AnnotateInt("failed_shards", len(res.ShardErrors)).AnnotateInt("hedges", res.Hedged)
	sp.End()

	// The parent context dying is a query-level failure: whatever shards
	// returned, the caller's deadline is spent.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(perShard) == 0 {
		return nil, fmt.Errorf("cluster: all %d shards failed: %w", n, res.ShardErrors[0])
	}

	sp = tr.StartSpan("merge")
	res.Matches = r.merge(perShard, k)
	sp.AnnotateInt("matches", len(res.Matches)).End()

	res.Degraded = len(res.ShardErrors) > 0
	r.searches.Add(1)
	r.reg.Counter(MetricSearches).Inc()
	r.reg.Histogram(MetricSearchSeconds).Observe(time.Since(start))
	if res.Degraded {
		r.degraded.Add(1)
		r.reg.Counter(MetricDegraded).Inc()
	} else if r.cache != nil && r.mutGen.Load() == startGen {
		// Only complete answers are worth remembering — and only if no
		// mutation landed while we scattered, else the entry would outlive
		// the purge that should have killed it.
		r.cache.Put(key, cloneMatches(res.Matches))
	}
	return res, nil
}

// searchShard runs one shard's query under the per-shard deadline, with a
// hedged retry when the primary runs past the shard's observed p95. Each
// attempt records a child span under the scatter span.
func (r *Router) searchShard(ctx context.Context, scatter *obs.Span, i int, q []float32, k int) ([]core.Match, obs.CostReport, error, bool) {
	type answer struct {
		matches []core.Match
		cost    obs.CostReport
	}
	a, err, hedged := hedged(r, ctx, i, func(sctx context.Context, attempt string) (answer, error) {
		m, cost, err := r.runShard(sctx, ctx, scatter, i, q, k, attempt)
		return answer{m, cost}, err
	})
	return a.matches, a.cost, err, hedged
}

// hedged runs one shard request under the per-shard deadline: attempt
// runs once as the primary, and — when hedging is armed and the primary
// runs past the shard's observed p95 — once more as a hedge racing it.
// The first success wins; with both failing, the first failure's answer
// (its cost accounting included) and error are returned. The bool reports
// whether a hedge launched.
func hedged[T any](r *Router, ctx context.Context, i int, attempt func(sctx context.Context, kind string) (T, error)) (T, error, bool) {
	sctx := ctx
	if r.opts.ShardTimeout > 0 {
		var cancel context.CancelFunc
		sctx, cancel = context.WithTimeout(ctx, r.opts.ShardTimeout)
		defer cancel()
	}
	delay, hedge := r.hedgeDelay(i)
	if !hedge {
		a, err := attempt(sctx, "primary")
		return a, err, false
	}

	type outcome struct {
		answer  T
		err     error
		isHedge bool
	}
	ch := make(chan outcome, 2) // buffered: the loser never blocks or leaks
	launch := func(isHedge bool) {
		kind := "primary"
		if isHedge {
			kind = "hedge"
		}
		go func() {
			a, err := attempt(sctx, kind)
			ch <- outcome{a, err, isHedge}
		}()
	}
	launch(false)
	timer := time.NewTimer(delay)
	defer timer.Stop()

	launched := false
	var first outcome
	select {
	case first = <-ch:
	case <-timer.C:
		launched = true
		r.state[i].hedges.Add(1)
		r.reg.Counter(MetricHedges).Inc()
		launch(true)
		first = <-ch
	}
	if first.err == nil {
		if first.isHedge {
			r.reg.Counter(MetricHedgeWins).Inc()
		}
		return first.answer, nil, launched
	}
	if launched {
		// The first finisher failed; its twin may still come through.
		if second := <-ch; second.err == nil {
			if second.isHedge {
				r.reg.Counter(MetricHedgeWins).Inc()
			}
			return second.answer, nil, launched
		}
	}
	return first.answer, first.err, launched
}

// runShard executes one shard search attempt, recording latency, its span
// (a child of the scatter span, annotated with shard index, attempt kind
// and failure detail) and classifying failures. parent distinguishes a
// shard-deadline timeout from the whole query's context dying.
func (r *Router) runShard(sctx, parent context.Context, scatter *obs.Span, i int, q []float32, k int, attempt string) ([]core.Match, obs.CostReport, error) {
	r.state[i].searches.Add(1)
	r.opts.Workload.RecordShard(i)
	sp := scatter.StartChild("shard").
		AnnotateInt("shard", i).
		Annotate("attempt", attempt)
	cost := &obs.Cost{}
	start := time.Now()
	m, err := r.shards[i].SearchEncoded(obs.ContextWithCost(sctx, cost), q, k)
	rep := cost.Report()
	if r.recordAttempt(parent, i, time.Since(start), err) {
		sp.Annotate("timeout", "true")
	}
	if err != nil {
		sp.Annotate("error", err.Error()).End()
		return nil, rep, err
	}
	sp.AnnotateInt("matches", len(m)).
		AnnotateInt("distance_comps", int(rep.DistanceComps)).
		AnnotateInt("pq_lookups", int(rep.PQLookups)).
		End()
	return m, rep, nil
}

// recordAttempt accounts one finished attempt on shard i — its latency,
// and for a failure the error and, when the shard's own deadline rather
// than the parent query's expired, the timeout — and reports whether it
// timed out.
func (r *Router) recordAttempt(parent context.Context, i int, d time.Duration, err error) (timedOut bool) {
	st := r.state[i]
	r.reg.Histogram(obs.L(MetricShardSearchSeconds, "shard", strconv.Itoa(i))).Observe(d)
	if err == nil {
		st.lat.record(d)
		return false
	}
	st.errors.Add(1)
	r.reg.Counter(obs.L(MetricShardErrors, "shard", strconv.Itoa(i))).Inc()
	if !errors.Is(err, context.DeadlineExceeded) || parent.Err() != nil {
		return false
	}
	st.timeouts.Add(1)
	r.reg.Counter(obs.L(MetricShardTimeouts, "shard", strconv.Itoa(i))).Inc()
	return true
}

// hedgeDelay returns when a hedge should launch for shard i, and whether
// hedging is armed at all: it needs the feature enabled and enough
// latency history for the p95 to mean something.
func (r *Router) hedgeDelay(i int) (time.Duration, bool) {
	if !r.opts.Hedge {
		return 0, false
	}
	p95, ok := r.state[i].lat.p95(r.opts.HedgeAfter)
	if !ok {
		return 0, false
	}
	if p95 < r.opts.MinHedgeDelay {
		p95 = r.opts.MinHedgeDelay
	}
	return p95, true
}

// merge folds per-shard top-k′ lists into the global top-k. Ordering is
// score descending with ties broken by ascending global relation order —
// the same comparator the single-engine ranking uses (score descending,
// relation index ascending), so for exact shards the merged ranking is
// bit-identical to the monolith's.
func (r *Router) merge(perShard [][]core.Match, k int) []core.Match {
	total := 0
	for _, ms := range perShard {
		total += len(ms)
	}
	type ranked struct {
		m     core.Match
		order int
	}
	all := make([]ranked, 0, total)
	for _, ms := range perShard {
		for _, m := range ms {
			all = append(all, ranked{m: m, order: r.opts.Order(m.RelationID)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].m.Score != all[j].m.Score {
			return all[i].m.Score > all[j].m.Score
		}
		return all[i].order < all[j].order
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]core.Match, len(all))
	for i, a := range all {
		out[i] = a.m
	}
	return out
}

// ShardStats is one shard's health snapshot.
type ShardStats struct {
	Shard     int     `json:"shard"`
	Relations int     `json:"relations"`
	Searches  int64   `json:"searches"`
	Errors    int64   `json:"errors"`
	Timeouts  int64   `json:"timeouts"`
	Hedges    int64   `json:"hedges"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	// Segments and TombstonedRelations describe the shard's segment store
	// (populated when Options.SegmentInfo is set).
	Segments            int `json:"segments,omitempty"`
	TombstonedRelations int `json:"tombstoned_relations,omitempty"`
}

// Stats is the router's point-in-time health snapshot.
type Stats struct {
	Shards      []ShardStats `json:"shards"`
	Policy      string       `json:"policy"`
	Searches    int64        `json:"searches"`
	Degraded    int64        `json:"degraded"`
	CacheHits   int64        `json:"cache_hits"`
	CacheMisses int64        `json:"cache_misses"`
	CacheLen    int          `json:"cache_len"`
}

// Stats snapshots per-shard counters and latency quantiles.
func (r *Router) Stats() Stats {
	s := Stats{
		Policy:   r.opts.Policy.String(),
		Searches: r.searches.Load(),
		Degraded: r.degraded.Load(),
	}
	if r.cache != nil {
		s.CacheHits, s.CacheMisses = r.cache.Stats()
		s.CacheLen = r.cache.Len()
	}
	for i, st := range r.state {
		p50 := st.lat.quantile(0.50)
		p95 := st.lat.quantile(0.95)
		ss := ShardStats{
			Shard:     i,
			Relations: int(r.relCount[i].Load()),
			Searches:  st.searches.Load(),
			Errors:    st.errors.Load(),
			Timeouts:  st.timeouts.Load(),
			Hedges:    st.hedges.Load(),
			P50MS:     float64(p50) / float64(time.Millisecond),
			P95MS:     float64(p95) / float64(time.Millisecond),
		}
		if r.opts.SegmentInfo != nil {
			ss.Segments, ss.TombstonedRelations = r.opts.SegmentInfo(i)
		}
		s.Shards = append(s.Shards, ss)
	}
	return s
}

func cloneMatches(ms []core.Match) []core.Match {
	out := make([]core.Match, len(ms))
	copy(out, ms)
	return out
}
