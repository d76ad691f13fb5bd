package semdisco

import (
	"context"
	"time"

	"semdisco/internal/cluster"
	"semdisco/internal/obs"
)

// Query is one item of a batched search: the query text and its result
// bound. Items with K ≤ 0 yield an empty answer without being scored.
type Query struct {
	Text string
	K    int
}

// BatchResult is one query's slice of a SearchBatch answer: the ranked
// matches plus the work accounting for that item. In-batch duplicates of
// the same (Text, K) share one scan; every duplicate still receives its own
// full Matches copy, with the cost charged once to the first occurrence.
type BatchResult struct {
	Matches []Match
	Cost    CostReport
}

// SearchBatch answers a block of queries in one fused pass over the index.
// Each distinct query text is encoded once (duplicate strings share the
// vector), and when the engine's method supports batched execution — all
// three do — the whole block is scored together: ExS runs a single blocked
// scan over the corpus reusing each value vector across every query of the
// batch, ANNS walks the graph per query over shared scratch state, and CTS
// deduplicates cluster probes across the batch.
//
// Results are positionally aligned with queries and, for ExS, bit-identical
// to issuing each query through Search — batching changes throughput, never
// answers. Cancellation via ctx aborts the whole batch with the context's
// error. Per-item costs also fold into a cost accumulator carried by ctx
// (see SearchCost), so batch work is visible to callers accounting at the
// request level.
func (e *Engine) SearchBatch(ctx context.Context, queries []Query) ([]BatchResult, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()

	// Encode once per distinct text; duplicate strings — the common shape
	// under coalesced traffic — share one vector. Items with K ≤ 0 are
	// compacted out so the fused scan never scores them; active maps the
	// compacted block back to input positions.
	encoded := make(map[string][]float32, len(queries))
	var (
		active []int
		qs     [][]float32
		ks     []int
	)
	for i, q := range queries {
		if q.K <= 0 {
			continue
		}
		v, ok := encoded[q.Text]
		if !ok {
			v = e.model.Encode(q.Text)
			encoded[q.Text] = v
		}
		active = append(active, i)
		qs = append(qs, v)
		ks = append(ks, q.K)
	}

	costs := make([]*obs.Cost, len(qs))
	for i := range costs {
		costs[i] = &obs.Cost{}
	}

	ms := make([][]Match, len(queries))
	if len(qs) > 0 {
		rows, err := e.store.SearchEncodedBatch(ctx, qs, ks, costs)
		if err != nil {
			return nil, err
		}
		for s, i := range active {
			ms[i] = rows[s]
		}
	}

	dur := time.Since(start)
	perItem := dur / time.Duration(len(queries))
	parent := obs.CostFrom(ctx)
	method := e.Method().String()
	now := time.Now()
	out := make([]BatchResult, len(queries))
	for i := range queries {
		out[i] = BatchResult{Matches: ms[i]}
	}
	for s, i := range active {
		rep := costs[s].Report()
		out[i].Cost = rep
		if parent != nil {
			parent.AddReport(rep)
		}
		// Workload analytics see each batch item with its amortized share of
		// the batch latency — heavy-hitter and cost rankings stay meaningful
		// under batched traffic.
		e.workload.Record(queries[i].Text, method, "", rep, perItem, now)
		e.workload.RecordShard(0)
		e.slo.Record(perItem, false)
	}
	return out, nil
}

// SearchBatch answers a block of queries with one scatter-gather per shard:
// the router checks its result cache per item, encodes each distinct
// remaining query text once, deduplicates identical (Text, K) items inside
// the batch, and sends the whole encoded block to every shard in a single
// fan-out — one deadline and one hedge decision per shard for the block,
// not per query. Results are positionally aligned with queries; per-item
// degradation semantics match SearchContext, and coalesced duplicates are
// marked Result.Coalesced with their cost charged to the slot owner.
//
// The batch runs under one trace (offered to the trace store like a
// single search), and each item is recorded for the SLO burn rates and
// workload analytics with its amortized share of the batch latency.
func (c *Cluster) SearchBatch(ctx context.Context, queries []Query) ([]*ClusterResult, error) {
	items := make([]cluster.BatchQuery, len(queries))
	for i, q := range queries {
		items[i] = cluster.BatchQuery{Query: q.Text, K: q.K}
	}
	var tr *obs.Trace
	if c.traces != nil {
		tr = obs.NewTraceFrom(ctx)
	}
	root := tr.StartRoot("cluster_search_batch").AnnotateInt("queries", len(items))
	results, err := c.router.SearchBatch(propagate(ctx, tr, root), items)
	dur := root.End()
	method := c.cfg.Method.String()
	o := obs.TraceOutcome{Duration: dur, Method: method + "_batch", K: len(items),
		RequestID: obs.RequestIDFrom(ctx)}
	if err != nil {
		o.Err = err.Error()
		c.slo.Record(dur, true)
	}
	perItem := dur / time.Duration(max(len(items), 1))
	now := time.Now()
	for i, res := range results {
		if tr != nil {
			res.TraceID = tr.ID().String()
		}
		o.Degraded = o.Degraded || res.Degraded
		o.Hedged += res.Hedged
		if queries[i].K > 0 {
			c.slo.Record(perItem, res.Degraded)
			c.workload.Record(queries[i].Text, method, res.TraceID, res.Cost, perItem, now)
		}
	}
	if tr != nil {
		offerTrace(c.traces, c.reg, cluster.MetricSearchSeconds, tr, o)
	}
	return results, err
}
