package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"semdisco"
	"semdisco/internal/netcluster"
	"semdisco/internal/obs"
)

// Probe sizes: layers reported at p99 are called probeCalls times (so ten
// samples lie beyond the p99); the rest once per pool query.
const probeCalls = 1000

// probeTarget is the engine the library probes call and the server that
// serves it: the single engine, or the first replica of the first set.
func (r *run) probeTarget() (*semdisco.Engine, string) {
	if r.sys.eng != nil {
		return r.sys.eng, r.sys.url
	}
	return r.sys.shards[0][0], r.sys.shardURLs[0][0]
}

// probeLayers calls each layer's public API in turn, serially, on the
// pool's queries. Each round runs under its own trace:
//
//	probe > client.search > httpapi.serve   the HTTP front
//	probe > engine.search                   Engine.SearchCost
//	probe > embed.encode                    Engine.Embed
//	probe > core.search                     EncodedBackend().SearchEncoded
//	probe > netcluster.wire                 netcluster client, one replica
//	probe > cluster.search                  NetCoordinator.SearchContext
//
// so the layer arithmetic (HTTP minus engine, engine minus core and
// encode, wire minus core) pairs calls made for the same query. It sets
// the per-layer metrics it measures.
func (r *run) probeLayers(ctx context.Context, ref *reference) error {
	eng, url := r.probeTarget()
	var (
		cost                  semdisco.CostReport // summed over the engine.search calls
		costCalls, coordCalls int
	)
	front := newClient(ref.front, 1, r.rec)
	defer front.close()
	wire := netcluster.NewClient(url, newWireTransport(r.rec))
	vecs := make(map[string][]float32, len(r.pool))
	for _, q := range r.pool {
		vecs[q] = eng.Embed(q)
	}
	req0, resp0 := ref.coordWire.reqBytes.Load(), ref.coordWire.respBytes.Load()
	mark := r.rec.mark()
	for i := 0; i < probeCalls; i++ {
		q := r.pool[i%len(r.pool)]
		root, end := r.rec.open(spanRef{}, "probe")
		rctx := context.WithValue(ctx, spanKey{}, root)
		call := func(name string, fn func(context.Context) error) error {
			c, end := r.rec.openCtx(rctx, name)
			err := fn(c)
			end()
			return err
		}
		paired := i < len(r.pool)
		var errs []error
		if paired {
			_, _, err := front.search(rctx, q)
			errs = append(errs, err,
				call("embed.encode", func(context.Context) error { eng.Embed(q); return nil }),
				call("cluster.search", func(c context.Context) error { _, err := ref.coord.SearchContext(c, q, k); return err }),
			)
			coordCalls++
		}
		errs = append(errs,
			call("engine.search", func(c context.Context) error {
				_, rep, err := eng.SearchCost(c, q, k)
				cost.Add(rep)
				costCalls++
				return err
			}),
			call("core.search", func(c context.Context) error {
				_, err := eng.EncodedBackend().SearchEncoded(c, vecs[q], k)
				return err
			}),
			call("netcluster.wire", func(c context.Context) error {
				_, _, _, err := wire.SearchEncoded(c, vecs[q], k)
				return err
			}),
		)
		end()
		for _, err := range errs {
			r.count(err)
		}
	}
	r.reportProbe(byTrace(r.rec.since(mark)))
	n := float64(costCalls)
	r.set("core.distance_comps_per_query", float64(cost.DistanceComps)/n)
	r.set("core.values_scanned_per_query", float64(cost.ValuesScanned)/n)
	r.set("core.candidates_per_query", float64(cost.CandidatesGenerated)/n)
	r.set("hnsw.hops_per_query", float64(cost.HNSWHops)/n)
	r.set("pq.lookups_per_query", float64(cost.PQLookups)/n)
	r.set("vec.flops_per_query", 2*dim*float64(cost.DistanceComps)/n)
	r.set("netcluster.req_bytes_per_query", float64(ref.coordWire.reqBytes.Load()-req0)/float64(coordCalls))
	r.set("netcluster.resp_bytes_per_query", float64(ref.coordWire.respBytes.Load()-resp0)/float64(coordCalls))
	var retries, hedges int64
	groups := ref.coord.Stats().Groups
	if r.sys.nc != nil {
		groups = append(groups, r.sys.nc.Stats().Groups...)
	}
	for _, g := range groups {
		retries += g.Retries
		hedges += g.Hedges
	}
	r.set("netcluster.retries", float64(retries))
	r.set("netcluster.hedges", float64(hedges))

	// Allocations and batch cost, on serial loops outside any span.
	allocs, _ := allocsPer(len(r.pool), func(i int) { eng.Embed(r.pool[i]) })
	r.set("embed.allocs_per_encode", allocs)
	allocs, bytes := allocsPer(len(r.pool), func(i int) {
		_, err := eng.EncodedBackend().SearchEncoded(ctx, vecs[r.pool[i]], k)
		r.count(err)
	})
	r.set("core.allocs_per_query", allocs)
	r.set("core.alloc_bytes_per_query", bytes)
	r.set("core.batch_ms_per_query", r.probeBatch(ctx, eng, vecs))
	pct, err := r.probeObsOverhead(ctx, eng)
	if err != nil {
		return err
	}
	r.set("obs.overhead_pct", pct)
	return nil
}

// allocsPer runs fn n times and returns the heap allocations and bytes
// per call.
func allocsPer(n int, fn func(i int)) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// probeBatch times SearchEncodedBatch over the pool in blocks of
// batchSize, three passes, and returns milliseconds per query.
func (r *run) probeBatch(ctx context.Context, eng *semdisco.Engine, vecs map[string][]float32) float64 {
	var total time.Duration
	queries := 0
	for pass := 0; pass < 3; pass++ {
		for off := 0; off+batchSize <= len(r.pool); off += batchSize {
			qs := make([][]float32, batchSize)
			ks := make([]int, batchSize)
			for i := range qs {
				qs[i], ks[i] = vecs[r.pool[off+i]], k
			}
			start := time.Now()
			_, err := eng.EncodedBackend().SearchEncodedBatch(ctx, qs, ks, nil)
			total += time.Since(start)
			r.count(err)
			queries += batchSize
		}
	}
	return ms(total) / float64(queries)
}

// probeObsOverhead compares the library p50 of the default engine with
// an engine over the same relations opened with metrics, diagnostics,
// tracing and the SLO engine all disabled, calls alternating. The two
// indexes are the same but for the ANNS graph, which a parallel build
// shapes a little differently each time.
func (r *run) probeObsOverhead(ctx context.Context, eng *semdisco.Engine) (float64, error) {
	cfg := config(r.sys.cor, r.w.method)
	cfg.DisableMetrics = true
	cfg.Diagnostics.Disable = true
	cfg.Tracing.Disable = true
	cfg.SLO.Disable = true
	var bare *semdisco.Engine
	var err error
	if r.sys.eng != nil {
		bare, err = semdisco.Open(r.sys.cor.Federation, cfg)
	} else {
		bare, err = semdisco.NewNetShard(r.sys.cor.Federation, semdisco.NetShardConfig{Config: cfg, Sets: sets, Set: 0})
	}
	if err != nil {
		return 0, fmt.Errorf("opening the telemetry-free engine: %w", err)
	}
	var def, off []time.Duration
	for i := 0; i < probeCalls; i++ {
		q := r.pool[i%len(r.pool)]
		for _, e := range []*semdisco.Engine{eng, bare} {
			start := time.Now()
			_, err := e.SearchContext(ctx, q, k)
			d := time.Since(start)
			r.count(err)
			if e == eng {
				def = append(def, d)
			} else {
				off = append(off, d)
			}
		}
	}
	p50def, _ := pctl(def, 50)
	p50off, _ := pctl(off, 50)
	return (p50def - p50off) / p50off * 100, nil
}

// reportProbe sets the per-layer timings of the probe's traces.
func (r *run) reportProbe(t map[uint64]map[string]time.Duration) {
	p := func(name string, ds []time.Duration, q float64) {
		v, err := pctl(ds, q)
		if err != nil {
			r.count(fmt.Errorf("%s: %v", name, err))
		}
		r.set(name, v)
	}
	// Behind the netcluster's front server is a coordinator, not an engine.
	behind := "probe>engine.search"
	if r.w.netcluster {
		behind = "probe>cluster.search"
	}
	p("httpapi.overhead_ms.p50", selfTimes(t, "client.search>httpapi.serve", behind), 50)
	p("embed.encode_ms.p50", durations(t, "probe>embed.encode"), 50)
	p("engine.search_ms.p50", durations(t, "probe>engine.search"), 50)
	p("engine.search_ms.p99", durations(t, "probe>engine.search"), 99)
	p("engine.telemetry_ms.p50", selfTimes(t, "probe>engine.search", "probe>core.search", "probe>embed.encode"), 50)
	p("core.search_ms.p50", durations(t, "probe>core.search"), 50)
	p("core.search_ms.p99", durations(t, "probe>core.search"), 99)
	p("netcluster.wire_ms.p50", durations(t, "probe>netcluster.wire"), 50)
	p("netcluster.wire_ms.p99", durations(t, "probe>netcluster.wire"), 99)
	p("netcluster.wire_overhead_ms.p50", selfTimes(t, "probe>netcluster.wire", "probe>core.search"), 50)
	p("cluster.search_ms.p50", durations(t, "probe>cluster.search"), 50)
}

// layerFromPhases derives the HTTP layer's metrics from the open-loop
// phases: the server span of every search, response sizes, the search
// tail with and without writes, and the generator's own lateness.
func (r *run) layerFromPhases(readOuts, mixOuts []outcome, spans []span) {
	var serve []time.Duration
	for _, m := range byTrace(spans) {
		if d, ok := m["client.search>httpapi.serve"]; ok {
			serve = append(serve, d)
		}
	}
	for _, q := range []float64{50, 99} {
		v, err := pctl(serve, q)
		if err != nil {
			r.count(fmt.Errorf("httpapi.serve_ms: %v", err))
		}
		r.set(fmt.Sprintf("httpapi.serve_ms.p%v", q), v)
	}
	var bytes, n float64
	var readLat, mixLat, lag []time.Duration
	for _, o := range readOuts {
		bytes += float64(o.bytes)
		n++
		readLat = append(readLat, o.lat)
		lag = append(lag, o.lag)
	}
	for _, o := range mixOuts {
		if o.kind == opSearch {
			mixLat = append(mixLat, o.lat)
		}
		lag = append(lag, o.lag)
	}
	r.set("httpapi.resp_bytes_per_search", bytes/n)
	// The search tail with writes minus without, at the highest percentile
	// both phases support: p99 on the ExS workload, whose mixed phase is
	// mostly reads; lower on the read workloads, whose is mostly writes.
	p := min(supported(len(readLat)), supported(len(mixLat)))
	readTail, err1 := pctl(readLat, p)
	mixTail, err2 := pctl(mixLat, p)
	for _, err := range []error{err1, err2} {
		if err != nil {
			r.count(fmt.Errorf("httpapi.write_interference_ms: %v", err))
		}
	}
	r.set("httpapi.write_interference_ms", mixTail-readTail)
	lagP99, err := pctl(lag, 99)
	if err != nil {
		r.count(fmt.Errorf("bench.gen_lag_p99_ms: %v", err))
	}
	r.set("bench.gen_lag_p99_ms", lagP99)
}

// counters are the program's own counters the run reads around its read
// phases.
type counters struct {
	tokenHits, tokenMisses int64
	cacheHits, cacheMisses int64
	coalesced, searches    int64
}

// readCounters reads the encoder's token cache counters (from the
// registry of whichever node encodes queries) and the coordinator's
// result-cache and coalescing counters.
func (r *run) readCounters() counters {
	reg := func() *obs.Registry {
		if r.sys.nc != nil {
			return r.sys.nc.MetricsRegistry()
		}
		return r.sys.eng.MetricsRegistry()
	}()
	snap := reg.Snapshot()
	sum := func(base string) int64 {
		var s int64
		for series, v := range snap.Counters {
			if b, _ := obs.ParseName(series); b == base {
				s += v
			}
		}
		return s
	}
	c := counters{
		tokenHits:   sum("semdisco_embed_cache_hits_total"),
		tokenMisses: sum("semdisco_embed_cache_misses_total"),
		coalesced:   sum("semdisco_cluster_coalesced_total"),
	}
	if r.sys.nc != nil {
		st := r.sys.nc.Stats().Router
		c.cacheHits, c.cacheMisses, c.searches = st.CacheHits, st.CacheMisses, st.Searches
	}
	return c
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (r *run) layerFromCounters(before, after counters) {
	hits, misses := after.tokenHits-before.tokenHits, after.tokenMisses-before.tokenMisses
	r.set("embed.token_cache_hit_ratio", ratio(hits, hits+misses))
	ch, cm := after.cacheHits-before.cacheHits, after.cacheMisses-before.cacheMisses
	r.set("cluster.cache_hit_ratio", ratio(ch, ch+cm))
	r.set("cluster.coalesced_ratio", ratio(after.coalesced-before.coalesced, after.searches-before.searches))
}

// layerSegments reports the segment layer's work during the mixed phase
// and its quiescence, per thousand writes applied to an engine.
func (r *run) layerSegments(before, after segTotals, peak segPeak, writes int) {
	applied := float64(writes)
	if r.w.netcluster {
		applied *= replicas // every write lands on each replica of its set
	}
	r.set("segment.seals_per_1k_writes", float64(after.seals-before.seals)*1000/applied)
	r.set("segment.compactions_per_1k_writes", float64(after.compactions-before.compactions)*1000/applied)
	r.set("segment.count_max", float64(peak.segments))
	r.set("segment.mutable_values_max", float64(peak.mutableValues))
}

// probeLibraryWrites times probeCalls library writes, of the kinds the
// workload's mixed phase sends, against the probe target engine. It runs
// last: the netcluster's replicas disagree afterwards.
func (r *run) probeLibraryWrites() {
	eng, _ := r.probeTarget()
	var live []*semdisco.Relation
	for _, id := range eng.LiveRelations() {
		rel, ok := r.model.rels[id]
		if !ok {
			// Only when a write of the mixed phase failed; the probe
			// leaves the relation alone.
			r.count(fmt.Errorf("live relation %q unknown to the write model", id))
			continue
		}
		live = append(live, rel)
	}
	m := newWriteModel(live)
	m.next = r.model.next // fresh IDs for adds
	ops := m.mixedStream(probeCalls, 1, r.w.ingest, r.pool, r.extras, r.seed*7+4)
	var ds []time.Duration
	for _, o := range ops {
		start := time.Now()
		var err error
		switch o.kind {
		case opAdd:
			err = eng.Add(o.rel)
		case opUpdate:
			err = eng.Update(o.rel)
		case opDelete:
			err = eng.Delete(o.id)
		}
		ds = append(ds, time.Since(start))
		r.count(err)
	}
	for _, q := range []float64{50, 99} {
		v, err := pctl(ds, q)
		r.count(err)
		r.set(fmt.Sprintf("segment.write_ms.p%v", q), v)
	}
}
