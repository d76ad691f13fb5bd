package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"semdisco"
	"semdisco/internal/corpus"
	"semdisco/internal/eval"
	"semdisco/internal/obs"
)

// run is one invocation of one workload.
type run struct {
	w       *workload
	seed    int64
	seconds int
	rec     *recorder // nil in untraced runs
	sys     *system
	cl      *client
	pool    []string
	qrels   map[string]map[string]int // query text -> judged relations
	model   *writeModel
	extras  []*semdisco.Relation

	attempted, failed int
	problems          []string
	out               map[string]metric
}

func (r *run) set(name string, v float64) {
	for _, m := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
		if m.name == name {
			r.out[name] = metric{Value: v, Unit: m.unit}
			return
		}
	}
	panic("perfbench: undeclared metric " + name) // a bug in this file
}

// count records one attempted operation and whether it failed.
func (r *run) count(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 8 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// execute runs one workload end to end and returns its result.
func execute(w *workload, seed int64, seconds int, traced bool) (*run, error) {
	r := &run{w: w, seed: seed, seconds: seconds, out: map[string]metric{}}
	if traced {
		r.rec = newRecorder()
	}
	ctx := context.Background()

	// Set-up, several times where it is cheap enough; the last one serves.
	var setups []float64
	for i := 0; i < w.setups; i++ {
		if r.sys != nil {
			r.sys.close()
			r.sys = nil
		}
		runtime.GC()
		start := time.Now()
		sys, err := setUp(w, seed, r.rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		r.sys = sys
	}
	defer r.sys.close()
	r.set("setup_s", median(setups))
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.set("heap_mb", float64(mem.HeapAlloc)/(1<<20))
	buildShares := r.buildShares(setups[len(setups)-1])

	if err := r.inputs(); err != nil {
		return nil, err
	}
	r.cl = newClient(r.sys.url, runtime.NumCPU(), r.rec)
	defer r.cl.close()
	ref, err := newReference(r)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	defer ref.close()

	// Warm every cache with one pass over the pool, then check answers.
	for _, q := range r.pool {
		_, _, err := r.cl.search(ctx, q)
		r.count(err)
	}
	r.checkReads(ctx, ref)

	countersBefore := r.readCounters()

	// Open loop, read-only.
	n := w.ops(phaseRead, w.readRate, seconds)
	mark := r.rec.mark()
	readOuts := r.openLoop(searchOps(queryStream(r.pool, n, w.zipf, seed*7+1)), w.readRate)
	readSpans := r.rec.since(mark)

	seq, peak, gcFrac, gcPer1k := r.closedPhase(w.dur(phaseClosed, seconds))
	r.set("closed.search_qps", seq)
	r.set("peak.search_qps", peak)

	// Batch phase.
	r.set("batch_qps", r.batchPhase(w.dur(phaseBatch, seconds)))

	countersAfter := r.readCounters()
	if traced {
		if err := r.probeLayers(ctx, ref); err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
	}

	// Open loop, mixed reads and writes.
	segBefore := r.segmentTotals()
	n = w.ops(phaseMix, w.mixRate, seconds)
	mixOps := r.model.mixedStream(n, w.writeFrac, w.ingest, queryStream(r.pool, n, w.zipf, seed*7+2), r.extras, seed*7+3)
	stopSampler := r.sampleSegments()
	mark = r.rec.mark()
	mixOuts := r.openLoop(mixOps, w.mixRate)
	mixSpans := r.rec.since(mark)
	segMax := stopSampler()
	if err := r.quiesce(); err != nil {
		return nil, err
	}
	segAfter := r.segmentTotals()
	recall := r.checkAfterWrites(ctx, ref)
	if r.w.churnLatency {
		r.set("recall_at_10", recall)
	}

	// End-to-end latencies.
	latFrom := readOuts
	if w.churnLatency {
		latFrom = mixOuts
	}
	r.setLatency("search_p50_ms", latFrom, opSearch, 50)
	r.setLatency("tail.search_p99_ms", latFrom, opSearch, 99)
	r.setLatency("write_p50_ms", mixOuts, opAdd, 50)
	r.setLatency("tail.write_p99_ms", mixOuts, opAdd, 99)

	if !traced {
		return r, nil
	}

	// Per-layer metrics.
	for phase, v := range buildShares {
		r.set("setup.build_share."+phase, v)
	}
	r.set("runtime.gc_cpu_frac", gcFrac)
	r.set("runtime.gc_per_1k_queries", gcPer1k)
	r.layerFromPhases(readOuts, mixOuts, append(readSpans, mixSpans...))
	r.layerFromCounters(countersBefore, countersAfter)
	writes := 0
	for _, o := range mixOps {
		if o.kind != opSearch {
			writes++
		}
	}
	r.layerSegments(segBefore, segAfter, segMax, writes)
	r.probeLibraryWrites()
	return r, nil
}

// inputs derives the query pool, judgments, write model and write
// content from the corpus the seed generated.
func (r *run) inputs() error {
	cor := r.sys.cor
	r.pool = queryPool(cor)
	if len(r.pool) < 300 {
		return fmt.Errorf("query pool has %d distinct texts, want at least 300", len(r.pool))
	}
	r.qrels = make(map[string]map[string]int)
	for _, q := range cor.Queries {
		if _, ok := r.qrels[q.Text]; !ok {
			r.qrels[q.Text] = cor.Qrels[q.ID]
		}
	}
	r.model = newWriteModel(cor.Federation.Relations())
	// Write content: relations the same profile generates past the
	// corpus' own, so they share its vocabulary.
	p := cor.Profile
	base := p.NumRelations
	p.NumRelations += 100
	if r.w.ingest {
		p.RowsMin, p.RowsMax, p.ColsMin, p.ColsMax = 1, 1, 1, 1
	}
	more := corpus.Generate(p).Federation.Relations()
	r.extras = more[base:]
	return nil
}

func searchOps(qs []string) []op {
	ops := make([]op, len(qs))
	for i, q := range qs {
		ops[i] = op{kind: opSearch, query: q, after: -1}
	}
	return ops
}

// openLoop runs an open-loop phase at rate from runtime.NumCPU() sending
// goroutines and counts its outcomes.
func (r *run) openLoop(ops []op, rate float64) []outcome {
	nominal := time.Duration(float64(len(ops)) / rate * float64(time.Second))
	outs := openLoop(ops, rate, runtime.NumCPU(), 3*nominal+5*time.Second, func(o op) (int, error) {
		return r.cl.do(context.Background(), o)
	})
	for _, o := range outs {
		r.count(o.err)
	}
	return outs
}

// setLatency reports percentile p of the latencies of one kind of op; any
// write kind stands for all writes. See windowedPctl.
func (r *run) setLatency(name string, outs []outcome, kind opKind, p float64) {
	var ds []time.Duration
	for _, o := range outs {
		if (o.kind == opSearch) == (kind == opSearch) {
			ds = append(ds, o.lat)
		}
	}
	v, err := windowedPctl(ds, p)
	if err != nil {
		r.count(fmt.Errorf("%s: %v", name, err))
		v = math.NaN()
	}
	r.set(name, v)
}

// windows is how many consecutive windows a closed-loop phase is split
// into. A rate is the median over its windows, so a burst of interference
// from outside the process moves few windows and not the result.
const windows = 12

// closedWindows runs a closed-loop phase of length d as consecutive
// windows; before(win) runs ahead of each window and returns its client
// count, and send(w) sends client w's next request and reports the
// queries it answered. It returns each window's rate in queries per
// second, with the runtime's GC counters and the query count of each.
func (r *run) closedWindows(d time.Duration, before func(win int) int, send func(w int) (int, error)) (rates []float64, gcs []gcSample, ns []int) {
	for win := 0; win < windows; win++ {
		clients := before(win)
		g := readGC()
		n, errs, elapsed := closedLoop(d/windows, clients, send)
		for _, err := range errs {
			r.count(err)
		}
		rates = append(rates, float64(n)/elapsed.Seconds())
		gcs = append(gcs, readGC().minus(g))
		ns = append(ns, n)
	}
	return rates, gcs, ns
}

// clientStreams gives each client its own query stream, and a cursor
// only that client's goroutine advances.
func (r *run) clientStreams(seed int64) (next func(w int) string) {
	streams := make([][]string, runtime.NumCPU())
	pos := make([]int, len(streams))
	for w := range streams {
		streams[w] = queryStream(r.pool, 1<<14, r.w.zipf, seed+int64(w))
	}
	return func(w int) string {
		s := streams[w]
		q := s[pos[w]%len(s)]
		pos[w]++
		return q
	}
}

// closedPhase measures single searches in a closed loop. Windows alternate
// between one client, a caller waiting on each reply, and one client per
// CPU, the peak. A traced run also alternates the one-client windows
// between spans off and on, for the tracing overhead, and takes GC figures
// from the peak windows.
func (r *run) closedPhase(d time.Duration) (seq, peak, gcFrac, gcPer1k float64) {
	next := r.clientStreams(r.seed*7 + 10)
	// In a traced run, the one-client windows time each search, spans off
	// in half of them, ordered off, on, on, off, ... so that a drift over
	// the phase, such as a warming cache, charges both kinds alike: the
	// medians of the two kinds give the overhead.
	var durs [2][]time.Duration
	var cur *[]time.Duration // written before a window's clients start
	rates, gcs, ns := r.closedWindows(d, func(win int) int {
		cur = nil
		if r.rec != nil {
			traced := win%2 == 1 || (win/2)%4 == 1 || (win/2)%4 == 2
			r.rec.on.Store(traced)
			switch {
			case win%2 == 1:
			case traced:
				cur = &durs[1]
			default:
				cur = &durs[0]
			}
		}
		if win%2 == 0 {
			return 1
		}
		return runtime.NumCPU()
	}, func(w int) (int, error) {
		start := time.Now()
		if _, _, err := r.cl.search(context.Background(), next(w)); err != nil {
			return 0, err
		}
		if cur != nil {
			*cur = append(*cur, time.Since(start))
		}
		return 1, nil
	})
	var one, many []float64
	var gc gcSample
	n := 0
	for win, rate := range rates {
		if win%2 == 0 {
			one = append(one, rate)
			continue
		}
		many = append(many, rate)
		gc = gc.plus(gcs[win])
		n += ns[win]
	}
	if r.rec != nil {
		r.rec.on.Store(true)
		off, err1 := pctl(durs[0], 50)
		on, err2 := pctl(durs[1], 50)
		for _, err := range []error{err1, err2} {
			if err != nil {
				r.count(fmt.Errorf("bench.trace_overhead_pct: %v", err))
			}
		}
		r.set("bench.trace_overhead_pct", (on-off)/off*100)
	}
	return median(one), median(many), gc.frac(), gc.per1k(n)
}

// batchPhase measures queries answered per second through
// /v1/search/batch in blocks of batchSize, from one client.
func (r *run) batchPhase(d time.Duration) float64 {
	next := r.clientStreams(r.seed*7 + 20)
	rates, _, _ := r.closedWindows(d, func(int) int { return 1 }, func(w int) (int, error) {
		qs := make([]string, batchSize)
		for i := range qs {
			qs[i] = next(w)
		}
		ans, _, err := r.cl.batch(context.Background(), qs)
		return len(ans), err
	})
	return median(rates)
}

// gcSample is a reading of the runtime's cumulative GC counters.
type gcSample struct{ cycles, gcCPU, totalCPU float64 }

var gcMetrics = []string{"/gc/cycles/total:gc-cycles", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readGC() gcSample {
	s := make([]metrics.Sample, len(gcMetrics))
	for i, name := range gcMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return gcSample{val(0), val(1), val(2)}
}

func (a gcSample) minus(b gcSample) gcSample {
	return gcSample{a.cycles - b.cycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a gcSample) plus(b gcSample) gcSample {
	return gcSample{a.cycles + b.cycles, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

func (g gcSample) frac() float64 {
	if g.totalCPU <= 0 {
		return 0
	}
	return g.gcCPU / g.totalCPU
}

func (g gcSample) per1k(queries int) float64 {
	if queries == 0 {
		return 0
	}
	return g.cycles * 1000 / float64(queries)
}

// buildShares reads the index-build phase gauges of every engine of the
// last set-up, as build seconds per second of that set-up.
func (r *run) buildShares(setupS float64) map[string]float64 {
	out := map[string]float64{}
	for _, phase := range []string{"embed", "umap", "hdbscan", "hnsw_insert", "pq_train"} {
		var sum float64
		for _, e := range r.sys.engines() {
			sum += e.MetricsRegistry().Gauge(obs.L("semdisco_index_build_seconds", "phase", phase)).Value()
		}
		out[phase] = sum / setupS
	}
	return out
}

// ndcg is the mean nDCG@10 of answers against the generator's judgments,
// over the pool queries that have any.
func (r *run) ndcg(answers map[string][]semdisco.Match) float64 {
	var scores []float64
	for _, q := range r.pool {
		judged := r.qrels[q]
		if len(judged) == 0 {
			continue
		}
		scores = append(scores, eval.NDCG(judged, ids(answers[q]), k))
	}
	return mean(scores)
}

// recallAt10 is the mean share of each exact top-10 answer that got
// returned, over the queries with a non-empty exact answer.
func recallAt10(got, exact map[string][]semdisco.Match) float64 {
	var rs []float64
	for q, want := range exact {
		if len(want) == 0 {
			continue
		}
		have := make(map[string]bool, len(got[q]))
		for _, m := range got[q] {
			have[m.RelationID] = true
		}
		hit := 0
		for _, m := range want {
			if have[m.RelationID] {
				hit++
			}
		}
		rs = append(rs, float64(hit)/float64(len(want)))
	}
	return mean(rs)
}

func ids(ms []semdisco.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.RelationID
	}
	return out
}

func sameMatches(a, b []semdisco.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
