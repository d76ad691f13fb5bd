package main

import (
	"context"
	"fmt"
	"time"

	"semdisco"
)

// reference holds what the run checks answers against.
type reference struct {
	// exact is ExS over the initial corpus, for recall; nil on the ExS
	// workload, whose recall is taken against a fresh build after churn.
	exact *semdisco.Engine
	// coord is an uncached coordinator over the system's servers: the
	// replica sets of the netcluster, or the engine's own server as a
	// single set. It is the library reference for the netcluster's HTTP
	// answers, and the cluster layer the traced run probes.
	coord     *semdisco.NetCoordinator
	coordWire *wireTransport
	// front is the public server the layer probe's HTTP calls go to: the
	// engine's, or one over coord, so that no result cache answers them.
	front string
	stop  func()
}

func newReference(r *run) (*reference, error) {
	ref := &reference{stop: func() {}}
	cor := r.sys.cor
	if r.w.method != semdisco.ExS {
		exact, err := semdisco.Open(cor.Federation, config(cor, semdisco.ExS))
		if err != nil {
			return nil, err
		}
		ref.exact = exact
	}
	sets := r.sys.shardURLs
	if sets == nil {
		sets = [][]string{{r.sys.url}}
	}
	cfg := semdisco.NetCoordinatorConfig{Config: config(cor, r.w.method)}
	if r.rec != nil {
		ref.coordWire = newWireTransport(r.rec)
		cfg.Transport = ref.coordWire
	}
	coord, err := semdisco.NewNetCoordinator(cor.Federation, sets, cfg)
	if err != nil {
		return nil, err
	}
	ref.coord = coord
	ref.front = r.sys.url
	if r.w.netcluster && r.rec != nil {
		url, stop, err := serve(wrap(newCoordinatorAPI(coord), "httpapi.serve", r.rec))
		if err != nil {
			return nil, err
		}
		ref.front, ref.stop = url, stop
	}
	return ref, nil
}

func (ref *reference) close() { ref.stop() }

// library answers q through the program's library API: the engine
// itself, or the uncached coordinator of the netcluster.
func (r *run) library(ctx context.Context, ref *reference, q string) ([]semdisco.Match, error) {
	if r.sys.eng != nil {
		return r.sys.eng.SearchContext(ctx, q, k)
	}
	res, err := ref.coord.SearchContext(ctx, q, k)
	if err != nil {
		return nil, err
	}
	if res.Degraded {
		return nil, fmt.Errorf("library search %q: degraded answer", q)
	}
	return res.Matches, nil
}

// compare sends every pool query over HTTP and checks the answer equals
// want's, match for match and score for score. It returns the HTTP
// answers.
func (r *run) compare(ctx context.Context, label string, want func(q string) ([]semdisco.Match, error)) map[string][]semdisco.Match {
	got := make(map[string][]semdisco.Match, len(r.pool))
	for _, q := range r.pool {
		h, _, err := r.cl.search(ctx, q)
		if err == nil {
			var l []semdisco.Match
			if l, err = want(q); err == nil && !sameMatches(h, l) {
				err = fmt.Errorf("%s: query %q: HTTP answered %v, reference %v", label, q, h, l)
			}
		}
		r.count(err)
		got[q] = h
	}
	return got
}

// checkReads compares HTTP with library answers on the initial corpus and
// scores them: nDCG@10 against the generator's judgments and, for the
// approximate methods, recall@10 against exact ExS.
func (r *run) checkReads(ctx context.Context, ref *reference) {
	got := r.compare(ctx, "HTTP vs library", func(q string) ([]semdisco.Match, error) {
		return r.library(ctx, ref, q)
	})
	r.set("ndcg_10", r.ndcg(got))
	if ref.exact == nil {
		return
	}
	exact := make(map[string][]semdisco.Match, len(r.pool))
	for _, q := range r.pool {
		ms, err := ref.exact.SearchContext(ctx, q, k)
		r.count(err)
		exact[q] = ms
	}
	r.set("recall_at_10", recallAt10(got, exact))
}

// checkAfterWrites runs once writes have stopped and maintenance has
// quiesced. The ExS workload's answers must equal a fresh ExS engine's,
// built over the surviving relations in their live insertion order; it
// returns their recall@10 (1 when they agree). The single-engine read
// workload compares HTTP with library answers again. The netcluster has
// no such reference after writes: answers tied on score are ordered by
// insertion order, which only the serving coordinator tracks for the
// relations added during the run.
func (r *run) checkAfterWrites(ctx context.Context, ref *reference) float64 {
	switch {
	case r.w.netcluster:
		return 0
	case r.w.method != semdisco.ExS:
		r.compare(ctx, "HTTP vs library after writes", func(q string) ([]semdisco.Match, error) {
			return r.library(ctx, ref, q)
		})
		return 0
	}
	live := r.sys.eng.LiveRelations()
	fed := semdisco.NewFederation()
	for _, id := range live {
		rel, ok := r.model.rels[id]
		if !ok {
			r.count(fmt.Errorf("relation %q is live but every write stream deleted it", id))
			continue
		}
		r.count(fed.Add(rel))
	}
	if len(live) != len(r.model.rels) {
		r.count(fmt.Errorf("%d relations live, the write stream leaves %d", len(live), len(r.model.rels)))
	}
	fresh, err := semdisco.Open(fed, config(r.sys.cor, semdisco.ExS))
	if err != nil {
		r.count(fmt.Errorf("fresh ExS build: %w", err))
		return 0
	}
	want := make(map[string][]semdisco.Match, len(r.pool))
	got := r.compare(ctx, "HTTP vs fresh ExS after churn", func(q string) ([]semdisco.Match, error) {
		ms, err := fresh.SearchContext(ctx, q, k)
		want[q] = ms
		return ms, err
	})
	return recallAt10(got, want)
}

// quiesce waits until no engine has maintenance running or pending.
func (r *run) quiesce() error {
	deadline := time.Now().Add(60 * time.Second)
	for _, e := range r.sys.engines() {
		for {
			if time.Now().After(deadline) {
				return fmt.Errorf("maintenance did not quiesce within 60s: %+v", e.SegmentStats())
			}
			before := e.SegmentStats()
			if !before.Compacting {
				if err := e.CompactionCheck(); err != nil {
					return fmt.Errorf("maintenance pass: %w", err)
				}
				after := e.SegmentStats()
				if !after.Compacting && after.Epoch == before.Epoch {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// segTotals sums the seal and compaction counters of every engine.
type segTotals struct{ seals, compactions int64 }

func (r *run) segmentTotals() segTotals {
	var t segTotals
	for _, e := range r.sys.engines() {
		st := e.SegmentStats()
		t.seals += st.Seals
		t.compactions += st.Compactions
	}
	return t
}

// segPeak is the largest segment count and mutable-segment size any engine
// reached.
type segPeak struct{ segments, mutableValues int }

// sampleSegments polls every engine's segment stats until the returned
// stop function is called; stop returns the peaks seen.
func (r *run) sampleSegments() (stop func() segPeak) {
	var peak segPeak
	quit := make(chan struct{})
	done := make(chan struct{})
	poll := func() {
		for _, e := range r.sys.engines() {
			st := e.SegmentStats()
			peak.segments = max(peak.segments, st.Segments)
			peak.mutableValues = max(peak.mutableValues, st.MutableValues)
		}
	}
	go func() {
		defer close(done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			poll()
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() segPeak {
		close(quit)
		<-done
		poll()
		return peak
	}
}
