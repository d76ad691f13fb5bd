package cluster

import (
	"context"
	"fmt"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
	"semdisco/internal/par"
)

// BatchShard is optionally implemented by shards that can answer a block of
// queries in one call (core.ExS/ANNS/CTS do, via SearchEncodedBatch). The
// router's SearchBatch uses it to fan one batched request out per shard —
// one deadline and one hedge decision per shard for the whole block —
// falling back to per-query SearchEncoded calls on shards without it.
type BatchShard interface {
	SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error)
}

// BatchQuery is one item of a batched federated search.
type BatchQuery struct {
	Query string
	K     int
}

// SearchBatch answers a block of queries with one scatter-gather: the
// router checks the result cache per item, encodes each distinct remaining
// query string once, sends the whole encoded block to every shard in a
// single fan-out (per-shard deadline and hedging decided once per shard,
// not once per query), merges per item, and deduplicates identical
// (query, k) items inside the batch so repeated requests ride one slot.
//
// The returned slice has one Result per item, in input order. Per-item
// semantics match Search: an item with K ≤ 0 yields an empty Result, a
// failed shard degrades every non-cached item, and only the parent
// context expiring (or every shard failing) turns into an error for the
// whole batch.
func (r *Router) SearchBatch(ctx context.Context, items []BatchQuery) ([]*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	results := make([]*Result, len(items))

	// Per-item cache check and in-batch (query, k) dedup: slots lists the
	// distinct uncached items that actually scatter; dupOf maps each item
	// to its slot.
	type slotKey = cacheKey
	slotOf := make(map[slotKey]int)
	dupOf := make([]int, len(items))
	var slots []int // item index owning each slot
	for i, it := range items {
		dupOf[i] = -1
		if it.K <= 0 {
			results[i] = &Result{}
			continue
		}
		key := slotKey{query: it.Query, k: it.K}
		if res, ok := r.cacheLookup(ctx, key, start); ok {
			results[i] = res
			continue
		}
		if s, ok := slotOf[key]; ok {
			dupOf[i] = s
			continue
		}
		slotOf[key] = len(slots)
		dupOf[i] = len(slots)
		slots = append(slots, i)
	}
	if len(slots) == 0 {
		return results, nil
	}

	// Encode each distinct query string once; duplicate strings under
	// different k share the vector.
	encoded := make(map[string][]float32, len(slots))
	qs := make([][]float32, len(slots))
	ks := make([]int, len(slots))
	kPrimes := make([]int, len(slots))
	for s, i := range slots {
		q, ok := encoded[items[i].Query]
		if !ok {
			q = r.opts.Encode(items[i].Query)
			encoded[items[i].Query] = q
		}
		qs[s] = q
		ks[s] = items[i].K
		kPrimes[s] = items[i].K + r.opts.Slack
	}

	n := len(r.shards)
	type shardOut struct {
		matches [][]core.Match
		costs   []obs.CostReport
		err     error
		hedged  bool
	}
	outs := make([]shardOut, n)
	par.Each(n, n, func(i int) {
		outs[i].matches, outs[i].costs, outs[i].err, outs[i].hedged = r.searchShardBatch(ctx, i, qs, kPrimes)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var shardErrs []ShardError
	healthy := 0
	for i := range outs {
		if outs[i].err != nil {
			shardErrs = append(shardErrs, ShardError{Shard: i, Err: outs[i].err})
			continue
		}
		healthy++
	}
	if healthy == 0 {
		return nil, fmt.Errorf("cluster: all %d shards failed: %w", n, shardErrs[0])
	}
	degraded := len(shardErrs) > 0

	// Merge per slot, then fan results out to the slot's items.
	r.reg.Counter(MetricBatchSearches).Inc()
	for s, owner := range slots {
		perShard := make([][]core.Match, 0, n)
		res := &Result{
			Degraded:    degraded,
			ShardErrors: shardErrs,
			ShardCosts:  make([]obs.CostReport, n),
		}
		for i := range outs {
			if outs[i].err != nil {
				continue
			}
			res.ShardCosts[i] = outs[i].costs[s]
			res.Cost.Add(outs[i].costs[s])
			if outs[i].hedged {
				res.Hedged++
			}
			perShard = append(perShard, outs[i].matches[s])
		}
		res.Matches = r.merge(perShard, ks[s])
		obs.CostFrom(ctx).AddReport(res.Cost)
		results[owner] = res
		r.searches.Add(1)
		r.reg.Counter(MetricSearches).Inc()
		r.reg.Counter(MetricBatchQueries).Inc()
		if degraded {
			r.degraded.Add(1)
			r.reg.Counter(MetricDegraded).Inc()
		} else if r.cache != nil {
			r.cache.Put(cacheKey{query: items[owner].Query, k: ks[s]}, cloneMatches(res.Matches))
		}
	}
	r.reg.Histogram(MetricSearchSeconds).Observe(time.Since(start))

	// In-batch duplicates share their slot's answer, marked Coalesced with
	// no cost of their own — the slot owner's Result carries the work.
	for i := range items {
		if results[i] != nil {
			continue
		}
		src := results[slots[dupOf[i]]]
		dup := *src
		dup.Matches = cloneMatches(src.Matches)
		dup.Coalesced = true
		dup.Cost = obs.CostReport{}
		dup.ShardCosts = nil
		results[i] = &dup
		r.reg.Counter(MetricCoalesced).Inc()
		r.searches.Add(1)
		r.reg.Counter(MetricSearches).Inc()
		r.reg.Counter(MetricBatchQueries).Inc()
	}
	return results, nil
}

// searchShardBatch runs one shard's whole block under a single per-shard
// deadline, with a single hedge decision: when the primary attempt runs
// past the shard's observed p95 (which, under batch traffic, reflects
// batch-sized attempts), one hedged retry of the whole block races it.
func (r *Router) searchShardBatch(ctx context.Context, i int, qs [][]float32, ks []int) ([][]core.Match, []obs.CostReport, error, bool) {
	type answer struct {
		matches [][]core.Match
		costs   []obs.CostReport
	}
	a, err, hedged := hedged(r, ctx, i, func(sctx context.Context, attempt string) (answer, error) {
		m, costs, err := r.runShardBatch(sctx, ctx, i, qs, ks, attempt)
		return answer{m, costs}, err
	})
	return a.matches, a.costs, err, hedged
}

// runShardBatch executes one batched shard attempt: the BatchShard fast
// path when the shard supports it, a per-query fallback loop otherwise.
// Per-query costs are collected either way.
func (r *Router) runShardBatch(sctx, parent context.Context, i int, qs [][]float32, ks []int, attempt string) ([][]core.Match, []obs.CostReport, error) {
	r.state[i].searches.Add(1)
	r.opts.Workload.RecordShard(i)
	costs := make([]*obs.Cost, len(qs))
	for j := range costs {
		costs[j] = &obs.Cost{}
	}
	start := time.Now()
	var (
		ms  [][]core.Match
		err error
	)
	if bs, ok := r.shards[i].(BatchShard); ok {
		ms, err = bs.SearchEncodedBatch(sctx, qs, ks, costs)
	} else {
		ms = make([][]core.Match, len(qs))
		for j := range qs {
			ms[j], err = r.shards[i].SearchEncoded(obs.ContextWithCost(sctx, costs[j]), qs[j], ks[j])
			if err != nil {
				break
			}
		}
	}
	r.recordAttempt(parent, i, time.Since(start), err)
	reps := make([]obs.CostReport, len(costs))
	for j, c := range costs {
		reps[j] = c.Report()
	}
	if err != nil {
		return nil, reps, err
	}
	return ms, reps, nil
}
