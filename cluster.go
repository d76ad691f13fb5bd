package semdisco

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"semdisco/internal/cluster"
	"semdisco/internal/core"
	"semdisco/internal/embed"
	"semdisco/internal/netcluster"
	"semdisco/internal/obs"
	"semdisco/internal/text"
)

// ShardPolicy selects how relations are partitioned across shards.
type ShardPolicy = cluster.Policy

const (
	// ShardByHash assigns relations by a stable hash of their ID.
	ShardByHash = cluster.PolicyHash
	// ShardRoundRobin deals relations out evenly and routes later Adds to
	// the smallest shard.
	ShardRoundRobin = cluster.PolicyRoundRobin
)

// ClusterResult is a federated query answer: the merged top-k plus the
// degradation metadata (which shards failed, whether hedges launched,
// whether the answer came from cache).
type ClusterResult = cluster.Result

// ClusterStats is a Cluster's health snapshot: per-shard counters and
// latency quantiles, cache effectiveness, degradation counts.
type ClusterStats = cluster.Stats

// ShardStats is one shard's slice of ClusterStats.
type ShardStats = cluster.ShardStats

// ClusterConfig parameterizes NewCluster. The embedded Config applies to
// every shard's engine; all shards share one encoder whose IDF statistics
// come from the full federation, so a query vector is identical no matter
// which shard scores it.
type ClusterConfig struct {
	Config
	// Shards is the partition count; default 4.
	Shards int
	// Policy selects the partitioning scheme; default ShardByHash.
	Policy ShardPolicy
	// Slack widens each shard's fetch to k+Slack before the merge;
	// default 8.
	Slack int
	// ShardTimeout bounds each shard's search; an expired shard is cut off
	// mid-scan and the query degrades to the remaining shards. 0 disables.
	ShardTimeout time.Duration
	// Hedge races a second attempt against a shard running past its
	// observed p95 latency.
	Hedge bool
	// MinHedgeDelay floors the hedge trigger; default 1ms.
	MinHedgeDelay time.Duration
	// HedgeAfter is the per-shard sample count before hedging arms;
	// default 16.
	HedgeAfter int
	// CacheSize bounds the query-result LRU (entries); 0 disables caching.
	CacheSize int
}

// clusterShard is one partition's backend: a local segment store
// (NewCluster, LoadCluster) or a remote replica set (NewNetCoordinator)
// whose writes fan out to every replica, each validating and applying
// them as its own store would. Exactly one of the two is set.
type clusterShard struct {
	store *core.SegmentStore
	group *netcluster.Group
}

// searcher is the shard as the router scatters to it.
func (s clusterShard) searcher() cluster.Shard {
	if s.group != nil {
		return s.group
	}
	return s.store
}

func (s clusterShard) add(ctx context.Context, r *Relation) error {
	if s.group == nil {
		return s.store.Add(r)
	}
	return s.group.Add(ctx, netcluster.RelationOf(r))
}

func (s clusterShard) remove(ctx context.Context, id string) error {
	if s.group == nil {
		return s.store.Delete(id)
	}
	return s.group.Delete(ctx, id)
}

func (s clusterShard) update(ctx context.Context, r *Relation) error {
	if s.group == nil {
		return s.store.Update(r)
	}
	return s.group.Update(ctx, netcluster.RelationOf(r))
}

// Cluster is a sharded federation index: N partitions behind a
// scatter-gather router with per-shard deadlines, hedged retries and
// partial-result degradation. The partitions are local segment stores
// (NewCluster, LoadCluster) or remote replica sets (NewNetCoordinator);
// either way the cluster owns the one encoder, the global merge order and
// the trace, SLO and workload telemetry. Search, Add, Delete and Update are
// all safe for concurrent use: mutations land in the owning shard (its
// mutable segment, a tombstone in place, or every replica of its set) and
// fence the router's result cache and coalescer.
type Cluster struct {
	cfg      ClusterConfig
	model    *embed.Model
	stats    *text.CorpusStats // nil for remote shards or a custom IDF
	shards   []clusterShard
	ring     *netcluster.Ring // remote placement; nil for local shards
	router   *cluster.Router
	reg      *obs.Registry
	traces   *obs.TraceStore // nil when Config.Tracing.Disable
	workload *obs.Workload   // heavy hitters, shard load skew, costliest queries
	slo      *obs.SLOEngine  // nil when Config.SLO.Disable
	// writeMu serializes mutations, so a write's placement check and its
	// bookkeeping stay atomic while the backend write itself runs outside
	// orderMu: searches keep merging while a remote write waits on its
	// replicas.
	writeMu sync.Mutex
	// orderMu guards order/nextOrder: mutations write them, the router's
	// merge tie-break reads order on every query.
	orderMu sync.RWMutex
	// order maps relation ID to its global insertion rank; the router's
	// merge tie-breaks on it so the federated ranking matches the
	// single-engine ranking exactly for exact methods.
	order     map[string]int
	nextOrder int
	// owner maps a live relation ID to the local shard holding it —
	// required for Delete/Update, whose ID may not route to its build-time
	// shard under round-robin. Guarded by writeMu; nil for remote shards,
	// which the ring places.
	owner map[string]int
}

// NewCluster partitions the federation into cfg.Shards slices, builds one
// engine per slice (sharing a single encoder fit to the full federation),
// and wires them behind a scatter-gather router. For ExS the cluster's
// ranking is bit-identical to a single engine's; approximate methods
// (ANNS, CTS) trade exactness per shard the same way they do monolithic.
func NewCluster(fed *Federation, cfg ClusterConfig) (*Cluster, error) {
	if fed == nil || fed.Len() == 0 {
		return nil, fmt.Errorf("semdisco: empty federation")
	}
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("semdisco: invalid shard count %d", cfg.Shards)
	}
	if cfg.Shards > fed.Len() {
		return nil, fmt.Errorf("semdisco: %d shards for %d relations; shards must not exceed relations", cfg.Shards, fed.Len())
	}
	model, reg, stats := federationEncoder(fed, cfg.Config)

	// Partition in federation insertion order so each shard preserves the
	// relative order of its relations — the invariant the merge's
	// tie-breaking relies on.
	parts := make([]*Federation, cfg.Shards)
	for i := range parts {
		parts[i] = NewFederation()
	}
	order := make(map[string]int, fed.Len())
	owner := make(map[string]int, fed.Len())
	for i, r := range fed.Relations() {
		var shard int
		switch cfg.Policy {
		case ShardRoundRobin:
			shard = i % cfg.Shards
		default:
			shard = cluster.HashShard(r.ID, cfg.Shards)
		}
		if err := parts[shard].Add(r); err != nil {
			return nil, fmt.Errorf("semdisco: partitioning: %w", err)
		}
		order[r.ID] = i
		owner[r.ID] = shard
	}
	for i, p := range parts {
		if p.Len() == 0 {
			return nil, fmt.Errorf("semdisco: shard %d would be empty under the %v policy; use fewer shards or ShardRoundRobin", i, cfg.Policy)
		}
	}

	shards := make([]clusterShard, cfg.Shards)
	relCounts := make([]int, cfg.Shards)
	for i, p := range parts {
		store, err := newSegmentStore(cfg.Config, core.EmbedFederation(p, model), reg)
		if err != nil {
			return nil, fmt.Errorf("semdisco: building shard %d: %w", i, err)
		}
		shards[i] = clusterShard{store: store}
		relCounts[i] = p.Len()
	}
	c, err := newCluster(cfg, model, reg, shards, relCounts, order, fed.Len())
	if err != nil {
		return nil, err
	}
	c.stats, c.owner = stats, owner
	return c, nil
}

// newCluster wires built shards behind one scatter-gather router with the
// cluster's encoder, merge order and telemetry. relCounts seeds each
// shard's relation count.
func newCluster(cfg ClusterConfig, model *embed.Model, reg *obs.Registry, shards []clusterShard, relCounts []int, order map[string]int, nextOrder int) (*Cluster, error) {
	c := &Cluster{
		cfg:       cfg,
		model:     model,
		shards:    shards,
		reg:       reg,
		traces:    newTraceStore(cfg.Tracing),
		workload:  newWorkload(len(shards), reg),
		slo:       newSLOEngine(cfg.SLO, reg),
		order:     order,
		nextOrder: nextOrder,
	}
	routerShards := make([]cluster.Shard, len(shards))
	for i, sh := range shards {
		routerShards[i] = sh.searcher()
	}
	router, err := cluster.NewRouter(routerShards, relCounts, c.routerOptions())
	if err != nil {
		return nil, fmt.Errorf("semdisco: %w", err)
	}
	c.router = router
	return c, nil
}

// routerOptions translates the public config into the router's options.
func (c *Cluster) routerOptions() cluster.Options {
	opts := cluster.Options{
		Policy:        c.cfg.Policy,
		Slack:         c.cfg.Slack,
		ShardTimeout:  c.cfg.ShardTimeout,
		Hedge:         c.cfg.Hedge,
		MinHedgeDelay: c.cfg.MinHedgeDelay,
		HedgeAfter:    c.cfg.HedgeAfter,
		Method:        c.cfg.Method.String(),
		Encode:        c.model.Encode,
		Order: func(relID string) int {
			c.orderMu.RLock()
			o, ok := c.order[relID]
			c.orderMu.RUnlock()
			if ok {
				return o
			}
			return int(^uint(0) >> 1) // unknown IDs tie-break last
		},
		CacheSize: c.cfg.CacheSize,
		Registry:  c.reg,
		Workload:  c.workload,
	}
	if c.shards[0].store != nil {
		opts.SegmentInfo = func(shard int) (int, int) {
			st := c.shards[shard].store.Stats()
			return st.Segments, st.DeadRelations
		}
	}
	return opts
}

// Search answers a query by scatter-gather over all shards: the query is
// encoded once, every shard ranks its partition concurrently, and the
// per-shard top-(k+Slack) lists merge into the global top-k. A failed or
// timed-out shard degrades the result (Result.Degraded, Result.ShardErrors)
// instead of failing the query; only all shards failing — or the caller's
// own context expiring — returns an error.
func (c *Cluster) Search(query string, k int) (*ClusterResult, error) {
	return c.SearchContext(context.Background(), query, k)
}

// SearchContext is Search under a caller-controlled deadline; the context
// is threaded into every shard's inner scan loops, or rides the wire as
// the replica attempts' deadline. With tracing enabled (the default) the
// query runs under a root span — continuing a propagated trace when ctx
// carries one — and interesting outcomes (degraded, hedged, errored, slow)
// land in the trace store under Result.TraceID.
func (c *Cluster) SearchContext(ctx context.Context, query string, k int) (*ClusterResult, error) {
	res, _, err := c.search(ctx, query, k, c.traces != nil)
	return res, err
}

// SearchTraced is Search with the per-stage breakdown of the federated
// query: encode, scatter (annotated with shard count, failures and
// hedges, one child span per shard attempt), merge.
func (c *Cluster) SearchTraced(query string, k int) (*ClusterResult, []TraceStage, error) {
	return c.SearchTracedContext(context.Background(), query, k)
}

// SearchTracedContext is SearchTraced under a caller-controlled context; a
// propagated span context (see obs.ContextWithSpan) is continued instead
// of minting a fresh trace ID.
func (c *Cluster) SearchTracedContext(ctx context.Context, query string, k int) (*ClusterResult, []TraceStage, error) {
	res, tr, err := c.search(ctx, query, k, true)
	if err != nil {
		return nil, nil, err
	}
	return res, toTraceStages(tr.Stages()), nil
}

// search is the one federated query path behind SearchContext and
// SearchTraced, for both shard backends. Traced, the query runs under a
// root span whose context rides to remote replicas (their span trees come
// back grafted in), and the finished tree is offered to the tail-based
// trace store with the scatter-gather outcome; a retained trace is linked
// from the cluster latency histogram via an exemplar. Traced or not, the
// query is recorded for the SLO burn rates and workload analytics.
func (c *Cluster) search(ctx context.Context, query string, k int, traced bool) (*ClusterResult, *obs.Trace, error) {
	var tr *obs.Trace
	if traced {
		tr = obs.NewTraceFrom(ctx)
	}
	root := tr.StartRoot("cluster_search")
	res, err := c.router.SearchTraced(propagate(ctx, tr, root), query, k, tr)
	if res != nil && tr != nil {
		root.AnnotateInt("matches", len(res.Matches)).
			AnnotateInt("distance_comps", int(res.Cost.DistanceComps)).
			AnnotateInt("pq_lookups", int(res.Cost.PQLookups))
		res.TraceID = tr.ID().String()
	}
	dur := root.End()
	method := c.cfg.Method.String()
	c.slo.Record(dur, err != nil || (res != nil && res.Degraded))
	if res != nil {
		c.workload.Record(query, method, res.TraceID, res.Cost, dur, time.Now())
	}
	if tr == nil {
		return res, nil, err
	}
	o := obs.TraceOutcome{
		Duration:  dur,
		Query:     query,
		Method:    method,
		K:         k,
		RequestID: obs.RequestIDFrom(ctx),
	}
	if err != nil {
		o.Err = err.Error()
	}
	if res != nil {
		o.Matches = len(res.Matches)
		o.Degraded = res.Degraded
		o.Hedged = res.Hedged
		for _, se := range res.ShardErrors {
			o.ShardErrors = append(o.ShardErrors, se.Error())
		}
	}
	offerTrace(c.traces, c.reg, cluster.MetricSearchSeconds, tr, o)
	return res, tr, err
}

// propagate threads a federated query's trace down to the shards: the
// live trace, so replica groups graft the remote span trees they receive,
// and the root's span context, so every wire request carries a
// traceparent parenting the shard's spans under root. A nil trace leaves
// ctx as is.
func propagate(ctx context.Context, tr *obs.Trace, root *obs.Span) context.Context {
	if tr == nil {
		return ctx
	}
	ctx = obs.ContextWithTrace(ctx, tr)
	return obs.ContextWithSpan(ctx, obs.SpanContext{TraceID: tr.ID(), SpanID: root.ID(), Flags: tr.Flags()})
}

// Traces exposes the cluster's tail-sampling trace store: retained span
// trees (root → encode/scatter/merge, per-shard attempt children, remote
// replicas' spans grafted in) listable, fetchable by trace ID and
// exportable as JSON lines. Nil when tracing is disabled.
func (c *Cluster) Traces() *obs.TraceStore { return c.traces }

// ConfigureTracing replaces the cluster's tracing subsystem, e.g. to apply
// a retention threshold to a cluster restored with LoadCluster. Call it
// before serving traffic; it must not race with Search.
func (c *Cluster) ConfigureTracing(tc TracingConfig) {
	c.traces = newTraceStore(tc)
}

// Add routes one new relation to a shard — its hash bucket under
// ShardByHash, the currently smallest shard under ShardRoundRobin, the
// ring-owning replica set for remote shards — where it lands in the
// shard's mutable segment. The router's result cache and coalescer are
// fenced. Safe for concurrent use with Search.
func (c *Cluster) Add(r *Relation) error { return c.AddContext(context.Background(), r) }

// AddContext is Add under a caller-controlled context, which bounds a
// remote shard's replica writes.
func (c *Cluster) AddContext(ctx context.Context, r *Relation) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	shard, err := c.place(r.ID)
	if err != nil {
		return err
	}
	undo := c.moveToEnd(r.ID)
	err = c.shards[shard].add(ctx, r)
	if !applied(err) {
		undo()
		return err
	}
	c.router.NoteAdd(shard)
	if c.owner != nil {
		c.owner[r.ID] = shard
	}
	return err
}

// Delete tombstones a relation on its owning shard: it stops appearing in
// federated results immediately, the router's result cache and coalescer
// are fenced, and the shard's next compaction reclaims the space. Safe
// for concurrent use with Search.
func (c *Cluster) Delete(relationName string) error {
	return c.DeleteContext(context.Background(), relationName)
}

// DeleteContext is Delete under a caller-controlled context.
func (c *Cluster) DeleteContext(ctx context.Context, relationName string) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	shard, err := c.locate(relationName)
	if err != nil {
		return err
	}
	err = c.shards[shard].remove(ctx, relationName)
	if applied(err) {
		c.router.NoteDelete(shard)
	}
	if err == nil {
		c.orderMu.Lock()
		delete(c.order, relationName)
		c.orderMu.Unlock()
		delete(c.owner, relationName)
	}
	return err
}

// Update replaces a relation's contents on its owning shard (the relation
// does not migrate shards) and moves it to the end of the global merge
// order, matching single-engine Update semantics. Safe for concurrent use
// with Search.
func (c *Cluster) Update(r *Relation) error { return c.UpdateContext(context.Background(), r) }

// UpdateContext is Update under a caller-controlled context.
func (c *Cluster) UpdateContext(ctx context.Context, r *Relation) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	shard, err := c.locate(r.ID)
	if err != nil {
		return err
	}
	undo := c.moveToEnd(r.ID)
	err = c.shards[shard].update(ctx, r)
	if !applied(err) {
		undo()
		return err
	}
	c.router.NoteUpdate(shard)
	return err
}

// place picks the shard a new relation lands on: the ring owner for
// remote shards, whose replicas reject duplicates themselves, else the
// router's choice among local shards. Caller holds writeMu.
func (c *Cluster) place(id string) (int, error) {
	if c.ring != nil {
		return c.ring.Owner(id), nil
	}
	if _, dup := c.owner[id]; dup {
		return 0, fmt.Errorf("semdisco: relation %q already indexed", id)
	}
	return c.router.Route(id), nil
}

// locate finds the shard holding a relation: the ring owner for remote
// shards, whose replicas report unknown IDs themselves, else the local
// owner map. Caller holds writeMu.
func (c *Cluster) locate(id string) (int, error) {
	if c.ring != nil {
		return c.ring.Owner(id), nil
	}
	shard, ok := c.owner[id]
	if !ok {
		return 0, fmt.Errorf("semdisco: relation %q not found", id)
	}
	return shard, nil
}

// moveToEnd gives id the next global merge rank before its write lands,
// so a search that already sees the written relation tie-breaks it where
// a single engine would. undo restores the previous rank for a write no
// shard applied. Caller holds writeMu.
func (c *Cluster) moveToEnd(id string) (undo func()) {
	c.orderMu.Lock()
	prev, had := c.order[id]
	c.order[id] = c.nextOrder
	c.nextOrder++
	c.orderMu.Unlock()
	return func() {
		c.orderMu.Lock()
		if had {
			c.order[id] = prev
		} else {
			delete(c.order, id)
		}
		c.orderMu.Unlock()
	}
}

// applied reports whether a write took effect on its shard: on success,
// and on a partial replica write (*netcluster.WriteError) — the mutation
// is durable where it landed, so the federation's answer may have changed.
func applied(err error) bool {
	var we *netcluster.WriteError
	return err == nil || errors.As(err, &we)
}

// Compact forces a full compaction on every local shard, sequentially.
// Remote shards compact on their own servers.
func (c *Cluster) Compact() error {
	for i, sh := range c.shards {
		if sh.store == nil {
			continue
		}
		if err := sh.store.Compact(); err != nil {
			return fmt.Errorf("semdisco: compacting shard %d: %w", i, err)
		}
	}
	return nil
}

// CompactionCheck runs one maintenance pass on every local shard: seal
// over-threshold mutable segments, build pending indexes, compact where a
// policy trigger fires.
func (c *Cluster) CompactionCheck() error {
	for i, sh := range c.shards {
		if sh.store == nil {
			continue
		}
		if err := sh.store.Maintain(); err != nil {
			return fmt.Errorf("semdisco: maintaining shard %d: %w", i, err)
		}
	}
	return nil
}

// NumShards reports the cluster's shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// NumRelations reports the live relation count in the global merge order.
func (c *Cluster) NumRelations() int {
	c.orderMu.RLock()
	defer c.orderMu.RUnlock()
	return len(c.order)
}

// Method reports the per-shard search strategy.
func (c *Cluster) Method() Method { return c.cfg.Method }

// Stats snapshots per-shard health: searches, errors, timeouts, hedges and
// latency quantiles per shard, plus cache and degradation counters.
func (c *Cluster) Stats() ClusterStats { return c.router.Stats() }

// MetricsRegistry exposes the cluster's metrics registry (nil under
// Config.DisableMetrics; a nil registry is valid everywhere).
func (c *Cluster) MetricsRegistry() *obs.Registry { return c.reg }

// clusterPersist is the gob envelope of a saved cluster: the shared
// engine configuration, the full-federation IDF statistics, the global
// order map the merge tie-breaks on, and one embedded-corpus blob per
// shard. Index structures are rebuilt deterministically on load.
type clusterPersist struct {
	Version       int
	Method        Method
	Dim           int
	Seed          int64
	Threshold     float32
	ExS           ExSOptions
	ANNS          ANNSOptions
	CTS           CTSOptions
	Lexicon       *Lexicon
	Stats         *text.CorpusStats
	Policy        int
	Slack         int
	ShardTimeout  time.Duration
	Hedge         bool
	MinHedgeDelay time.Duration
	HedgeAfter    int
	CacheSize     int
	Order         map[string]int
	NextOrder     int
	// EmbBlobs carries one monolithic embedding per shard; version 1 only.
	EmbBlobs [][]byte
	// StoreBlobs carries one segment-store image per shard (version 2),
	// and Owner the live relation → shard map.
	StoreBlobs [][]byte
	Owner      map[string]int
	Segments   SegmentsConfig
}

// Save writes the cluster so LoadCluster can restore it without
// re-encoding any value: shard assignment, global merge order and every
// shard's vectors persist; the per-shard index structures are rebuilt
// deterministically from the stored vectors and the original seed.
// Clusters configured with a custom IDF function cannot be saved.
func (c *Cluster) Save(w io.Writer) error {
	if c.cfg.IDF != nil {
		return fmt.Errorf("semdisco: clusters with a custom IDF function cannot be saved")
	}
	if c.ring != nil {
		return fmt.Errorf("semdisco: a networked cluster's partitions persist on their shard servers")
	}
	// Holding writeMu keeps the shard images and the order/owner maps one
	// consistent snapshot.
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	blobs := make([][]byte, len(c.shards))
	for i, sh := range c.shards {
		var buf bytes.Buffer
		if err := sh.store.Persist(&buf); err != nil {
			return fmt.Errorf("semdisco: save shard %d: %w", i, err)
		}
		blobs[i] = buf.Bytes()
	}
	return gob.NewEncoder(w).Encode(clusterPersist{
		Version:       2,
		Method:        c.cfg.Method,
		Dim:           c.cfg.Dim,
		Seed:          c.cfg.Seed,
		Threshold:     c.cfg.Threshold,
		ExS:           c.cfg.ExS,
		ANNS:          c.cfg.ANNS,
		CTS:           c.cfg.CTS,
		Lexicon:       c.cfg.Lexicon,
		Stats:         c.stats,
		Policy:        int(c.cfg.Policy),
		Slack:         c.cfg.Slack,
		ShardTimeout:  c.cfg.ShardTimeout,
		Hedge:         c.cfg.Hedge,
		MinHedgeDelay: c.cfg.MinHedgeDelay,
		HedgeAfter:    c.cfg.HedgeAfter,
		CacheSize:     c.cfg.CacheSize,
		Order:         c.order,
		NextOrder:     c.nextOrder,
		StoreBlobs:    blobs,
		Owner:         c.owner,
		Segments:      c.cfg.Segments,
	})
}

// LoadCluster restores a cluster written by Save: same shard assignment,
// same merge order, identical search results.
func LoadCluster(r io.Reader) (*Cluster, error) {
	var p clusterPersist
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("semdisco: load cluster: %w", err)
	}
	if p.Version != 1 && p.Version != 2 {
		return nil, fmt.Errorf("semdisco: unsupported cluster version %d", p.Version)
	}
	blobs := p.StoreBlobs
	if p.Version == 1 {
		blobs = p.EmbBlobs
	}
	cfg := ClusterConfig{
		Config: Config{
			Method:    p.Method,
			Dim:       p.Dim,
			Seed:      p.Seed,
			Threshold: p.Threshold,
			ExS:       p.ExS,
			ANNS:      p.ANNS,
			CTS:       p.CTS,
			Lexicon:   p.Lexicon,
			Segments:  p.Segments,
		},
		Shards:        len(blobs),
		Policy:        ShardPolicy(p.Policy),
		Slack:         p.Slack,
		ShardTimeout:  p.ShardTimeout,
		Hedge:         p.Hedge,
		MinHedgeDelay: p.MinHedgeDelay,
		HedgeAfter:    p.HedgeAfter,
		CacheSize:     p.CacheSize,
	}
	var idf func(string) float64
	if p.Stats != nil {
		idf = statsIDF(p.Stats)
	}
	model, reg := newEncoder(cfg.Config, idf)
	if p.Order == nil {
		p.Order = make(map[string]int)
	}
	if p.Owner == nil {
		p.Owner = make(map[string]int)
	}
	shards := make([]clusterShard, len(blobs))
	relCounts := make([]int, len(blobs))
	for i, blob := range blobs {
		var store *core.SegmentStore
		if p.Version == 1 {
			emb, err := core.RestoreEmbedded(bytes.NewReader(blob), model)
			if err != nil {
				return nil, fmt.Errorf("semdisco: restore shard %d: %w", i, err)
			}
			if store, err = newSegmentStore(cfg.Config, emb, reg); err != nil {
				return nil, fmt.Errorf("semdisco: rebuild shard %d: %w", i, err)
			}
		} else {
			var err error
			store, err = core.RestoreSegmentStore(bytes.NewReader(blob), model, reg, segmentStoreOptions(cfg.Config))
			if err != nil {
				return nil, fmt.Errorf("semdisco: restore shard %d: %w", i, err)
			}
		}
		// v1 images predate the owner map; rebuild it from the shard's
		// live relations.
		if p.Version == 1 {
			for _, id := range store.LiveRelations() {
				p.Owner[id] = i
			}
		}
		shards[i] = clusterShard{store: store}
		relCounts[i] = store.NumLiveRelations()
	}
	c, err := newCluster(cfg, model, reg, shards, relCounts, p.Order, p.NextOrder)
	if err != nil {
		return nil, err
	}
	c.stats, c.owner = p.Stats, p.Owner
	return c, nil
}
