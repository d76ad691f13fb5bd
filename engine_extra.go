package semdisco

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"semdisco/internal/core"
	"semdisco/internal/text"
)

// Add indexes one more relation without rebuilding the engine: the
// relation lands in the store's mutable segment (encode and append — no
// index build on the write path) and is served at exhaustive-scan quality
// until background maintenance seals the segment and builds the method's
// index over it. Safe for concurrent use with Search.
func (e *Engine) Add(r *Relation) error {
	if err := e.store.Add(r); err != nil {
		return err
	}
	e.relMu.Lock()
	e.relSource[r.ID] = r.Source
	e.relMu.Unlock()
	return nil
}

// Contribution is one value's share of a match, as reported by Explain.
type Contribution = core.Contribution

// Explanation decomposes one relation's match into per-value evidence.
type Explanation = core.Explanation

// Explain reports why a relation matches a query: the top-n attribute
// values by contribution to the relation's score. This decomposability is
// a direct benefit of value-level embedding — table-level embeddings
// cannot attribute a match to specific cells.
func (e *Engine) Explain(query, relationID string, topN int) (*Explanation, error) {
	return e.store.Explain(query, relationID, topN)
}

// SearchWithFeedback runs pseudo-relevance feedback (Rocchio): an initial
// search retrieves a few top relations, their embedding centroids expand
// the query, and the expanded query is searched. Useful for very short
// queries that lack context on their own.
func (e *Engine) SearchWithFeedback(query string, k int) ([]Match, error) {
	// Feedback centroids come from the base segment's embedding; matches
	// that live in younger segments still rank, they just contribute no
	// centroid until compaction folds them into the base.
	_, baseEmb := e.store.Base()
	return core.SearchPRF(e.store, baseEmb, query, k, core.PRFOptions{})
}

// SearchSources restricts a search to relations belonging to any of the
// named federation members — "find COVID tables, but only from WHO or
// ECDC". An empty source list returns no matches.
func (e *Engine) SearchSources(query string, k int, sources ...string) ([]Match, error) {
	allowed := make(map[string]struct{}, len(sources))
	for _, s := range sources {
		allowed[s] = struct{}{}
	}
	return e.store.SearchFiltered(query, k, func(relID string) bool {
		e.relMu.RLock()
		src := e.relSource[relID]
		e.relMu.RUnlock()
		_, ok := allowed[src]
		return ok
	})
}

// DatasetMatch is one dataset-level discovery result: the paper's §3
// generalization from single-relation datasets to multi-relation ones. A
// dataset is identified by its relations' Source; its score is the best
// member relation's score, and Relations lists the members that matched.
type DatasetMatch struct {
	Source    string
	Score     float32
	Relations []Match
}

// SearchDatasets ranks datasets (groups of relations sharing a Source) for
// the query and returns at most k of them, best first. Internally it
// over-fetches relations (4k, bounded by the corpus) and groups them.
func (e *Engine) SearchDatasets(query string, k int) ([]DatasetMatch, error) {
	if k <= 0 {
		return nil, nil
	}
	fetch := 4 * k
	if n := e.store.NumLiveRelations(); fetch > n {
		fetch = n
	}
	matches, err := e.Search(query, fetch)
	if err != nil {
		return nil, err
	}
	grouped := make(map[string]*DatasetMatch)
	var order []string
	e.relMu.RLock()
	defer e.relMu.RUnlock()
	for _, m := range matches {
		src := e.relSource[m.RelationID]
		g, ok := grouped[src]
		if !ok {
			g = &DatasetMatch{Source: src, Score: m.Score}
			grouped[src] = g
			order = append(order, src)
		}
		if m.Score > g.Score {
			g.Score = m.Score
		}
		g.Relations = append(g.Relations, m)
	}
	out := make([]DatasetMatch, 0, len(order))
	for _, src := range order {
		out = append(out, *grouped[src])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// enginePersist is the gob envelope of a saved engine. Custom IDF
// functions cannot be serialized; engines built with Config.IDF refuse to
// Save.
type enginePersist struct {
	Version   int
	Method    Method
	Dim       int
	Seed      int64
	Threshold float32
	ExS       ExSOptions
	ANNS      ANNSOptions
	CTS       CTSOptions
	Lexicon   *Lexicon
	Stats     *text.CorpusStats
	RelSource map[string]string
	// EmbBlob carries the embedded federation (core.Embedded.Persist);
	// version 1 images only.
	EmbBlob []byte
	// StoreBlob carries the whole segment store (core.SegmentStore.Persist):
	// every segment's vectors, insertion orders and tombstones. Version 2.
	StoreBlob []byte
	// Segments preserves the store policy across the roundtrip.
	Segments SegmentsConfig
}

// Save writes the engine so LoadEngine can restore it without re-encoding
// any value. The search index itself (HNSW graphs, clusters) is rebuilt
// deterministically on load from the stored vectors and the original seed.
// Engines configured with a custom IDF function cannot be saved.
func (e *Engine) Save(w io.Writer) error {
	if e.cfg.IDF != nil {
		return fmt.Errorf("semdisco: engines with a custom IDF function cannot be saved")
	}
	var storeBlob bytes.Buffer
	if err := e.store.Persist(&storeBlob); err != nil {
		return fmt.Errorf("semdisco: save: %w", err)
	}
	e.relMu.RLock()
	relSource := make(map[string]string, len(e.relSource))
	for k, v := range e.relSource {
		relSource[k] = v
	}
	e.relMu.RUnlock()
	return gob.NewEncoder(w).Encode(enginePersist{
		Version:   2,
		Method:    e.cfg.Method,
		Dim:       e.cfg.Dim,
		Seed:      e.cfg.Seed,
		Threshold: e.cfg.Threshold,
		ExS:       e.cfg.ExS,
		ANNS:      e.cfg.ANNS,
		CTS:       e.cfg.CTS,
		Lexicon:   e.cfg.Lexicon,
		Stats:     e.stats,
		RelSource: relSource,
		StoreBlob: storeBlob.Bytes(),
		Segments:  e.cfg.Segments,
	})
}

// LoadEngine restores an engine written by Save. Value embeddings are read
// back verbatim; the method's index structures are rebuilt.
func LoadEngine(r io.Reader) (*Engine, error) {
	var p enginePersist
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("semdisco: load: %w", err)
	}
	if p.Version != 1 && p.Version != 2 {
		return nil, fmt.Errorf("semdisco: unsupported engine version %d", p.Version)
	}
	cfg := Config{
		Method:    p.Method,
		Dim:       p.Dim,
		Seed:      p.Seed,
		Threshold: p.Threshold,
		ExS:       p.ExS,
		ANNS:      p.ANNS,
		CTS:       p.CTS,
		Lexicon:   p.Lexicon,
		Segments:  p.Segments,
	}
	var idf func(string) float64
	if p.Stats != nil {
		idf = statsIDF(p.Stats)
	}
	model, reg := newEncoder(cfg, idf)
	var store *core.SegmentStore
	if p.Version == 1 {
		// v1 images carry a single monolithic embedding; wrap it as the
		// store's base segment, exactly as Open does for a fresh build.
		emb, err := core.RestoreEmbedded(bytes.NewReader(p.EmbBlob), model)
		if err != nil {
			return nil, err
		}
		if store, err = newSegmentStore(cfg, emb, reg); err != nil {
			return nil, err
		}
	} else {
		var err error
		store, err = core.RestoreSegmentStore(bytes.NewReader(p.StoreBlob), model, reg, segmentStoreOptions(cfg))
		if err != nil {
			return nil, err
		}
	}
	if p.RelSource == nil {
		p.RelSource = make(map[string]string)
	}
	return &Engine{cfg: cfg, model: model, store: store, obs: reg,
		diag:   newDiagnostics(DiagnosticsConfig{}, reg),
		traces: newTraceStore(TracingConfig{}),
		stats:  p.Stats, relSource: p.RelSource}, nil
}
