// Package semdisco discovers datasets in a federation of tabular relations
// by semantic matching, implementing "Dataset Discovery using Semantic
// Matching" (EDBT 2025).
//
// Every attribute value of every relation is embedded into a
// high-dimensional vector space; a keyword query is embedded the same way
// and relations are ranked by the aggregate similarity of their values to
// the query — so a query for "COVID" finds a table listing "Comirnaty" and
// "Vaxzevria" even though the string COVID appears nowhere in it. Because
// only embeddings are indexed, and embeddings are not reversible, member
// datasets become searchable without their contents leaving the premises.
//
// Three search strategies are available: exhaustive scan (ExS), vector-
// database approximate search (ANNS: HNSW index + Product Quantization),
// and clustered targeted search (CTS: UMAP reduction + HDBSCAN clustering
// + per-cluster indexes), the paper's headline method.
//
// Quickstart:
//
//	fed := semdisco.NewFederation()
//	fed.Add(&semdisco.Relation{ID: "who", Columns: ..., Rows: ...})
//	eng, err := semdisco.Open(fed, semdisco.Config{Method: semdisco.CTS})
//	matches, err := eng.Search("COVID vaccines in Europe", 10)
package semdisco

import (
	"context"
	"fmt"
	"sync"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/embed"
	"semdisco/internal/obs"
	"semdisco/internal/text"
)

// Method selects the search strategy.
type Method int

const (
	// CTS is Clustered Targeted Search, the paper's best method: fastest
	// queries and the highest retrieval quality, at the price of the most
	// expensive index build (reduction + clustering).
	CTS Method = iota
	// ANNS indexes value vectors in an embedded vector database with HNSW
	// and Product Quantization: near-ExS quality, far faster queries.
	ANNS
	// ExS scans every value vector exhaustively: exact, no index build,
	// query cost linear in the corpus' total value count.
	ExS
)

func (m Method) String() string {
	switch m {
	case CTS:
		return "CTS"
	case ANNS:
		return "ANNS"
	case ExS:
		return "ExS"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Match is one discovery result.
type Match = core.Match

// Config parameterizes an Engine. The zero value selects CTS with the
// paper's defaults (768-dimensional embeddings, cosine similarity).
type Config struct {
	// Method selects the search strategy; default CTS.
	Method Method
	// Dim is the embedding dimensionality; default 768 (all-mpnet-base-v2's
	// output size, per the paper). Smaller dims trade quality for speed.
	Dim int
	// Seed makes embedding and index construction deterministic.
	Seed int64
	// Lexicon optionally injects domain synonym knowledge into the
	// encoder (see NewLexicon). Without one the encoder is purely lexical:
	// robust to inflection and misspelling but blind to synonymy.
	Lexicon *Lexicon
	// IDF optionally weights query/value tokens by informativeness
	// (higher = more important). Built automatically from the federation
	// when nil.
	IDF func(token string) float64
	// Threshold is the paper's h: matches scoring below it are dropped.
	Threshold float32
	// DisableMetrics turns off the engine's always-on observability
	// (atomic counters and latency histograms, see Engine.Stats and
	// Engine.MetricsRegistry). The default keeps metrics on: the cost is a
	// few atomic adds per query, cheap enough for production. Diagnostics
	// (slow-query log, trace sampling — see Diagnostics) are independent of
	// this switch: SearchTraced and the slow log work even without a
	// registry.
	DisableMetrics bool
	// Diagnostics tunes the slow-query log, trace sampling and event
	// journal; the zero value enables them with defaults. See
	// DiagnosticsConfig.
	Diagnostics DiagnosticsConfig
	// Tracing tunes the span-tree tracing subsystem: every search runs
	// under a 128-bit trace ID, and the tail-based trace store retains the
	// traces whose outcome is interesting (slow, degraded, hedged, failed)
	// plus a 1-in-M head sample. The zero value enables tracing with
	// defaults. See TracingConfig.
	Tracing TracingConfig
	// SLO tunes the service-level-objective burn-rate engine (availability
	// and latency objectives over rolling 5m/1h/6h windows). The zero value
	// enables it with defaults. See SLOConfig.
	SLO SLOConfig
	// Segments tunes the mutable segment store: when the in-memory write
	// segment seals, when background compaction triggers, and whether
	// maintenance runs automatically. The zero value enables automatic
	// maintenance with defaults. See SegmentsConfig.
	Segments SegmentsConfig

	// ExS tuning.
	ExS ExSOptions
	// ANNS tuning.
	ANNS ANNSOptions
	// CTS tuning.
	CTS CTSOptions
}

// Engine is a built discovery index over one federation, backed by a
// segment store: a mutable in-memory segment absorbs Add/Update, Delete
// tombstones in place, and background compaction merges segments and
// re-trains index structures when churn warrants it. Search, Add, Delete
// and Update are all safe for concurrent use — searches run against an
// atomically swapped segment snapshot and never block on writers.
type Engine struct {
	cfg      Config
	model    *embed.Model
	store    *core.SegmentStore
	obs      *obs.Registry     // nil when Config.DisableMetrics
	diag     *diagnostics      // nil when Config.Diagnostics.Disable
	traces   *obs.TraceStore   // nil when Config.Tracing.Disable
	workload *obs.Workload     // heavy hitters, costliest queries
	slo      *obs.SLOEngine    // nil when Config.SLO.Disable
	stats    *text.CorpusStats // nil when Config.IDF was supplied
	// relMu guards relSource: mutations write it, filtered searches and
	// dataset grouping read it.
	relMu     sync.RWMutex
	relSource map[string]string // relation ID -> source (dataset)
}

// Open embeds the federation and builds the index for the configured
// method. For CTS this is the expensive phase (dimensionality reduction and
// clustering run here); queries afterwards are fast.
func Open(fed *Federation, cfg Config) (*Engine, error) {
	if fed == nil || fed.Len() == 0 {
		return nil, fmt.Errorf("semdisco: empty federation")
	}
	model, reg, stats := federationEncoder(fed, cfg)
	embedStart := time.Now()
	emb := core.EmbedFederation(fed, model)
	reg.Gauge(obs.L(core.MetricBuildSeconds, "phase", "embed")).Set(time.Since(embedStart).Seconds())
	store, err := newSegmentStore(cfg, emb, reg)
	if err != nil {
		return nil, err
	}
	relSource := make(map[string]string, fed.Len())
	for _, r := range fed.Relations() {
		relSource[r.ID] = r.Source
	}
	return &Engine{cfg: cfg, model: model, store: store, obs: reg,
		diag:     newDiagnostics(cfg.Diagnostics, reg),
		traces:   newTraceStore(cfg.Tracing),
		workload: newWorkload(1, reg),
		slo:      newSLOEngine(cfg.SLO, reg),
		stats:    stats, relSource: relSource}, nil
}

// federationEncoder builds the encoder for fed and the metrics registry it
// reports to. Without cfg.IDF the encoder weighs tokens by IDF statistics
// over the full federation, returned so Save can persist them.
func federationEncoder(fed *Federation, cfg Config) (*embed.Model, *obs.Registry, *text.CorpusStats) {
	idf := cfg.IDF
	var stats *text.CorpusStats
	if idf == nil {
		stats = federationStats(fed)
		idf = statsIDF(stats)
	}
	model, reg := newEncoder(cfg, idf)
	return model, reg, stats
}

// newEncoder builds an encoder over the given IDF weighting, observed by a
// fresh metrics registry (nil under cfg.DisableMetrics).
func newEncoder(cfg Config, idf func(string) float64) (*embed.Model, *obs.Registry) {
	model := embed.New(embed.Config{
		Dim:     cfg.Dim,
		Seed:    cfg.Seed,
		Lexicon: cfg.Lexicon,
		IDF:     idf,
	})
	var reg *obs.Registry
	if !cfg.DisableMetrics {
		reg = obs.NewRegistry()
	}
	reg.SetHelps(core.MetricHelp)
	model.SetObserver(reg)
	return model, reg
}

// buildSearcher constructs the configured method's index over an embedded
// federation. It is also the segment store's SegmentBuilder: sealing a
// mutable segment and compacting both rebuild through here, so a merged
// segment gets a freshly trained PQ codebook / fresh clustering.
func buildSearcher(cfg Config, emb *core.Embedded) (core.EncodedSearcher, error) {
	var (
		s   core.EncodedSearcher
		err error
	)
	switch cfg.Method {
	case ExS:
		opt := cfg.ExS
		if opt.Threshold == 0 {
			opt.Threshold = cfg.Threshold
		}
		s = core.NewExS(emb, opt)
	case ANNS:
		opt := cfg.ANNS
		if opt.Threshold == 0 {
			opt.Threshold = cfg.Threshold
		}
		if opt.Seed == 0 {
			opt.Seed = cfg.Seed
		}
		s, err = core.NewANNS(emb, opt)
	case CTS:
		opt := cfg.CTS
		if opt.Threshold == 0 {
			opt.Threshold = cfg.Threshold
		}
		if opt.Seed == 0 {
			opt.Seed = cfg.Seed
		}
		s, err = core.NewCTS(emb, opt)
	default:
		return nil, fmt.Errorf("semdisco: unknown method %v", cfg.Method)
	}
	if err != nil {
		return nil, fmt.Errorf("semdisco: building %v index: %w", cfg.Method, err)
	}
	return s, nil
}

// Search ranks the federation's relations for a keyword query and returns
// at most k matches, best first, all scoring at least the configured
// threshold. With diagnostics enabled (the default) every query runs
// traced and feeds the slow-query log; the overhead is a few timestamps
// and map writes per query.
func (e *Engine) Search(query string, k int) ([]Match, error) {
	return e.SearchContext(context.Background(), query, k)
}

// SearchContext is Search with cooperative cancellation: the context is
// threaded into the method's inner loops (between ExS scan chunks, between
// CTS clusters, between HNSW hops), so an expired deadline or a cancelled
// request interrupts the query mid-index and returns the context's error.
// This is what lets a cluster deadline actually stop shard work rather
// than merely abandoning its result.
func (e *Engine) SearchContext(ctx context.Context, query string, k int) ([]Match, error) {
	if e.diag == nil && e.traces == nil {
		return e.store.SearchTracedContext(ctx, query, k, nil)
	}
	matches, _, _, err := e.searchWithTrace(ctx, query, k)
	return matches, err
}

// Method reports the engine's search strategy.
func (e *Engine) Method() Method { return e.cfg.Method }

// NumValues reports how many distinct attribute values are live (indexed
// and not tombstoned).
func (e *Engine) NumValues() int { return e.store.NumLiveValues() }

// NumRelations reports how many relations are live.
func (e *Engine) NumRelations() int { return e.store.NumLiveRelations() }

// Embed exposes the engine's encoder: the unit-norm embedding of any text,
// in the same space the index lives in. Useful for building custom
// similarity logic on top of the engine.
func (e *Engine) Embed(text string) []float32 { return e.model.Encode(text) }
