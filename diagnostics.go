package semdisco

import (
	"strconv"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// DiagnosticsConfig tunes the engine's deep-diagnostics layer: the
// slow-query log, head-based trace sampling and the structured event
// journal. The zero value enables diagnostics with sane defaults (128-deep
// slow ring retaining every query, 256-event journal, sampling off).
type DiagnosticsConfig struct {
	// Disable turns the whole layer off; Search then skips per-query
	// tracing entirely, as before.
	Disable bool
	// SlowLogSize is the slow-query ring capacity; default 128.
	SlowLogSize int
	// SlowLogThreshold is the minimum latency for a query to be retained
	// in the ring and journaled as "slow". Zero retains every query (the
	// ring then holds the most recent ones and SlowQueries ranks them) and
	// journals none as slow.
	SlowLogThreshold time.Duration
	// TraceSampleEvery journals the full exemplar trace of 1 in every M
	// queries (head-based). Zero disables sampling.
	TraceSampleEvery int
	// JournalSize is the event journal capacity; default 256.
	JournalSize int
}

// diagnostics is the per-engine instance: ring buffers and the sampler,
// plus the registry hooks that count slow/sampled queries. All methods are
// nil-receiver-safe so the Search hot path never branches on enablement.
type diagnostics struct {
	slowlog *obs.SlowLog
	sampler *obs.Sampler
	journal *obs.Journal
	recent  *obs.RecentQueries
	reg     *obs.Registry // nil when metrics are disabled; diagnostics still work
}

func newDiagnostics(dc DiagnosticsConfig, reg *obs.Registry) *diagnostics {
	if dc.Disable {
		return nil
	}
	return &diagnostics{
		slowlog: obs.NewSlowLog(dc.SlowLogSize, dc.SlowLogThreshold),
		sampler: obs.NewSampler(dc.TraceSampleEvery),
		journal: obs.NewJournal(dc.JournalSize),
		recent:  obs.NewRecentQueries(0),
		reg:     reg,
	}
}

// observe records one completed (or failed) query: always into the
// recent-query ring and — threshold permitting — the slow ring; slow or
// sampled queries additionally journal their exemplar trace.
func (d *diagnostics) observe(method, query string, k int, matches []Match, dur time.Duration, tr *obs.Trace, requestID string, err error) {
	if d == nil {
		return
	}
	d.recent.Add(query)
	rec := obs.QueryRecord{
		Time:      time.Now(),
		Query:     query,
		Method:    method,
		K:         k,
		Matches:   len(matches),
		Duration:  dur,
		Stages:    tr.Stages(),
		RequestID: requestID,
	}
	if id := tr.ID(); !id.IsZero() {
		rec.TraceID = id.String()
	}
	if len(matches) > 0 {
		rec.TopScore = matches[0].Score
	}
	if err != nil {
		rec.Err = err.Error()
	}
	d.slowlog.Record(rec)
	slow := d.slowlog.Threshold() > 0 && dur >= d.slowlog.Threshold()
	sampled := d.sampler.Sample() // counts every query, slow or not
	switch {
	case slow:
		d.reg.Counter(obs.L(core.MetricSlowQueries, "method", method)).Inc()
		d.journal.Append(obs.EventFromRecord("slow", rec))
	case sampled:
		d.reg.Counter(obs.L(core.MetricSampledTraces, "method", method)).Inc()
		d.journal.Append(obs.EventFromRecord("sampled", rec))
	}
}

// ConfigureDiagnostics replaces the engine's diagnostics layer, e.g. to
// apply a latency threshold to an engine restored with LoadEngine. Call it
// before serving traffic; it must not race with Search.
func (e *Engine) ConfigureDiagnostics(dc DiagnosticsConfig) {
	e.diag = newDiagnostics(dc, e.obs)
}

// SlowQuery is one retained slow-query record with its stage trace.
type SlowQuery struct {
	Time       time.Time    `json:"time"`
	Query      string       `json:"query"`
	Method     string       `json:"method"`
	K          int          `json:"k"`
	Matches    int          `json:"matches"`
	TopScore   float32      `json:"top_score"`
	DurationMS float64      `json:"duration_ms"`
	Stages     []TraceStage `json:"stages,omitempty"`
	TraceID    string       `json:"trace_id,omitempty"`
	RequestID  string       `json:"request_id,omitempty"`
	Err        string       `json:"error,omitempty"`
}

// SlowQueries returns up to n retained queries, slowest first, each with
// its full stage trace. With the default zero threshold the ring holds the
// most recent queries, so this answers "what were the slowest recent
// queries"; with a threshold it holds only genuine offenders. n ≤ 0
// returns every retained record. Nil when diagnostics are disabled.
func (e *Engine) SlowQueries(n int) []SlowQuery {
	if e.diag == nil {
		return nil
	}
	recs := e.diag.slowlog.Slowest(n)
	out := make([]SlowQuery, len(recs))
	for i, r := range recs {
		out[i] = SlowQuery{
			Time:       r.Time,
			Query:      r.Query,
			Method:     r.Method,
			K:          r.K,
			Matches:    r.Matches,
			TopScore:   r.TopScore,
			DurationMS: float64(r.Duration) / float64(time.Millisecond),
			Stages:     toTraceStages(r.Stages),
			TraceID:    r.TraceID,
			RequestID:  r.RequestID,
			Err:        r.Err,
		}
	}
	return out
}

// SlowLogStats reports the slow-log's configuration and volume.
type SlowLogStats struct {
	ThresholdMS float64 `json:"threshold_ms"`
	Retained    int     `json:"retained"`
	Recorded    int64   `json:"recorded"`
}

// SlowLogStats snapshots the slow log's threshold and counts.
func (e *Engine) SlowLogStats() SlowLogStats {
	if e.diag == nil {
		return SlowLogStats{}
	}
	l := e.diag.slowlog
	return SlowLogStats{
		ThresholdMS: float64(l.Threshold()) / float64(time.Millisecond),
		Retained:    l.Len(),
		Recorded:    l.Recorded(),
	}
}

// Journal exposes the engine's structured event journal of slow and
// sampled query traces, exportable as JSON lines via its WriteJSONL. Nil
// when diagnostics are disabled.
func (e *Engine) Journal() *obs.Journal {
	if e.diag == nil {
		return nil
	}
	return e.diag.journal
}

// IndexHealth is the engine's index self-diagnosis; see core.IndexHealth
// for the per-method sections.
type IndexHealth = core.IndexHealth

// IndexHealth introspects the built index: HNSW graph shape and
// reachability, PQ distortion, CTS cluster balance and medoid drift. The
// walk is O(nodes+edges) plus a bounded distortion sample — call it at
// diagnostic cadence, not per query. The headline figures are also
// exported as gauges on the metrics registry. Must not race with Add.
func (e *Engine) IndexHealth() IndexHealth {
	h := e.store.IndexHealth()
	if h.Graph != nil {
		e.obs.Gauge(core.MetricReachableFraction).Set(h.Graph.ReachableFraction)
	}
	if h.Graphs != nil {
		e.obs.Gauge(core.MetricReachableFraction).Set(h.Graphs.MeanReachable)
	}
	if h.PQ != nil && h.PQ.Trained {
		e.obs.Gauge(core.MetricPQDistortion).Set(h.PQ.Distortion.Mean)
	}
	if h.Clusters != nil {
		e.obs.Gauge(core.MetricClusterSizeCV).Set(h.Clusters.SizeCV)
		e.obs.Gauge(core.MetricMedoidDrift).Set(h.Clusters.MeanMedoidDrift)
	}
	return h
}

// RecallResult is an online recall probe report; see core.RecallResult.
type RecallResult = core.RecallResult

// recallProbeQueries bounds how many queries one probe replays.
const recallProbeQueries = 16

// RecallProbe replays a sample of recent real queries through both the
// engine's (approximate) index and an exhaustive scan of the same
// embeddings, and reports recall@k in [0,1] — the measured answer to
// "is ANNS/CTS still finding what ExS would". Engines that have not served
// traffic yet (or run with diagnostics disabled) probe with a stride
// sample of stored value texts instead. The result is exported as the
// semdisco_recall_at_k gauge. Cost is ~2·recallProbeQueries searches, one
// of them exhaustive; probe at diagnostic cadence. Safe for concurrent use
// with searches and writes: it probes the base segment of a published
// snapshot.
//
// Probe queries bypass the diagnostics layer, so probing never pollutes
// the slow-query log or the recent-query ring it samples from.
func (e *Engine) RecallProbe(k int) (RecallResult, error) {
	if k <= 0 {
		k = 10
	}
	source := "recent_queries"
	var queries []string
	if e.diag != nil {
		queries = e.diag.recent.Items(recallProbeQueries)
	}
	baseSearcher, baseEmb := e.store.Base()
	if len(queries) == 0 {
		queries = baseEmb.SampleValueTexts(recallProbeQueries)
		source = "value_sample"
	}
	// The probe pits the base segment's (approximate) index against an
	// exhaustive scan of the same embeddings — the structure whose recall
	// can silently rot. Younger segments are exhaustively scanned anyway,
	// so they have nothing to probe.
	res, err := core.ProbeRecall(baseSearcher, baseEmb, queries, k, e.cfg.Threshold)
	if err != nil {
		return res, err
	}
	res.Source = source
	e.obs.Gauge(obs.L(core.MetricRecallAtK,
		"method", res.Method, "k", strconv.Itoa(k))).Set(res.Recall)
	return res, nil
}
