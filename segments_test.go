package semdisco

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// churnTopics gives each synthetic relation a distinct repeatable topic.
var churnTopics = []string{
	"solar panels photovoltaic energy", "marine biology coral fish",
	"steam locomotive railway trains", "volcanic basalt magma geology",
	"baroque violin concerto music", "quantum entanglement photons physics",
	"sourdough fermentation baking bread", "glacier moraine ice erosion",
	"honeybee pollination hive nectar", "suspension bridge cable engineering",
	"rainforest canopy epiphyte ecology", "ceramic kiln glaze pottery",
	"cardiac ventricle artery anatomy", "sailing regatta spinnaker wind",
	"copper smelting ore metallurgy", "alpine meadow wildflower botany",
}

var churnQueries = []string{
	"solar energy", "coral fish", "railway trains", "magma geology",
	"violin music", "quantum physics", "baking bread", "honeybee nectar",
}

func churnRelation(id string, i int) *Relation {
	topic := churnTopics[i%len(churnTopics)]
	return &Relation{
		ID: id, Source: fmt.Sprintf("src-%d", i%3),
		Columns: []string{"A", "B"},
		Rows:    [][]string{{topic + " alpha", topic + " beta"}, {topic + " gamma", "42"}},
	}
}

// churnConfig pins the IDF to a constant so a churned engine and a fresh
// build over the surviving corpus score identically — corpus-derived IDF
// would differ between the two corpora by construction.
func churnConfig(seg SegmentsConfig) Config {
	return Config{
		Method: ExS, Dim: 64, Seed: 1,
		IDF:      func(string) float64 { return 1 },
		Segments: seg,
	}
}

func churnEngine(t testing.TB, n int, seg SegmentsConfig) (*Engine, map[string]*Relation) {
	t.Helper()
	fed := NewFederation()
	rels := make(map[string]*Relation, n)
	for i := 0; i < n; i++ {
		r := churnRelation(fmt.Sprintf("rel-%02d", i), i)
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
		rels[r.ID] = r
	}
	eng, err := Open(fed, churnConfig(seg))
	if err != nil {
		t.Fatal(err)
	}
	return eng, rels
}

// freshEngine rebuilds an engine from scratch over the given live corpus in
// the given order — the reference a churned engine must match.
func freshEngine(t testing.TB, rels map[string]*Relation, order []string) *Engine {
	t.Helper()
	fed := NewFederation()
	for _, id := range order {
		if err := fed.Add(rels[id]); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := Open(fed, churnConfig(SegmentsConfig{Manual: true}))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestEngineDeleteUpdate: Delete and Update are visible across every
// search surface of the engine — Search, SearchBatch, SearchSources and
// SearchDatasets — for all three methods.
func TestEngineDeleteUpdate(t *testing.T) {
	fed := vaccineFederation(t)
	for _, m := range []Method{ExS, ANNS, CTS} {
		eng, err := Open(fed, Config{
			Method: m, Dim: 128, Seed: 1,
			Lexicon: vaccineLexicon(),
			CTS:     CTSOptions{MinClusterSize: 4, UMAPEpochs: 60},
		})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := eng.Delete("who"); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if eng.Has("who") || !eng.Has("ecdc") {
			t.Fatalf("%v: Has after delete", m)
		}
		if eng.NumRelations() != 2 {
			t.Fatalf("%v: NumRelations=%d", m, eng.NumRelations())
		}
		assertNo := func(surface string, ms []Match) {
			t.Helper()
			for _, match := range ms {
				if match.RelationID == "who" {
					t.Fatalf("%v: deleted relation served by %s: %v", m, surface, ms)
				}
			}
		}
		ms, err := eng.Search("COVID vaccine", 5)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		assertNo("Search", ms)
		ms, err = eng.SearchSources("COVID vaccine", 5, "WHO", "ECDC")
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		assertNo("SearchSources", ms)
		batch, err := eng.SearchBatch(context.Background(), []Query{{Text: "COVID vaccine", K: 5}})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		assertNo("SearchBatch", batch[0].Matches)
		ds, err := eng.SearchDatasets("COVID vaccine", 5)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for _, d := range ds {
			assertNo("SearchDatasets", d.Relations)
			if d.Source == "WHO" {
				t.Fatalf("%v: dataset of a fully deleted source survives: %+v", m, ds)
			}
		}

		// Update: minerals becomes a vaccine table and must start matching.
		if err := eng.Update(&Relation{
			ID: "minerals", Source: "USGS",
			Columns: []string{"Region", "Vaccine"},
			Rows:    [][]string{{"Asia", "Comirnaty COVID-19 vaccine"}},
		}); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		ms, err = eng.Search("COVID vaccine", 3)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		found := false
		for _, match := range ms {
			found = found || match.RelationID == "minerals"
		}
		if !found {
			t.Fatalf("%v: updated relation not served: %v", m, ms)
		}
		if err := eng.Update(&Relation{ID: "ghost", Columns: []string{"A"}, Rows: [][]string{{"x"}}}); err == nil {
			t.Fatalf("%v: update of unknown relation accepted", m)
		}
		if err := eng.Delete("ghost"); err == nil {
			t.Fatalf("%v: delete of unknown relation accepted", m)
		}
	}
}

// TestEngineChurnEquivalence is the PR's acceptance pin: an engine churned
// through deletes (≥20% of relations), updates and adds, with at least one
// completed compaction, returns ExS results bit-identical to an engine
// freshly built from the surviving corpus.
func TestEngineChurnEquivalence(t *testing.T) {
	const n = 20
	eng, rels := churnEngine(t, n, SegmentsConfig{Manual: true, MaxMutableValues: 8})

	// Churn: delete 5/20 (25%), update 3, add 5, with a seal mid-stream.
	for _, id := range []string{"rel-01", "rel-05", "rel-09", "rel-13", "rel-17"} {
		if err := eng.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(rels, id)
	}
	for i, id := range []string{"rel-02", "rel-10", "rel-18"} {
		r := churnRelation(id, i+7)
		r.Rows = append(r.Rows, []string{"updated telescope observatory", "astronomy"})
		if err := eng.Update(r); err != nil {
			t.Fatal(err)
		}
		rels[id] = r
	}
	if err := eng.CompactionCheck(); err != nil { // seal the mutable segment
		t.Fatal(err)
	}
	for i := n; i < n+5; i++ {
		r := churnRelation(fmt.Sprintf("rel-%02d", i), i)
		if err := eng.Add(r); err != nil {
			t.Fatal(err)
		}
		rels[r.ID] = r
	}

	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	st := eng.SegmentStats()
	if st.Compactions < 1 {
		t.Fatalf("no compaction completed: %+v", st)
	}
	if st.DeadRelations != 0 || st.Segments != 1 {
		t.Fatalf("compaction left garbage: %+v", st)
	}
	if st.LiveRelations != len(rels) {
		t.Fatalf("live relations %d, want %d", st.LiveRelations, len(rels))
	}

	live := eng.LiveRelations()
	if len(live) != len(rels) {
		t.Fatalf("LiveRelations: %d ids, want %d", len(live), len(rels))
	}
	fresh := freshEngine(t, rels, live)
	for _, q := range churnQueries {
		got, err := eng.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Search(q, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %q diverged from fresh build:\n got: %v\nwant: %v", q, got, want)
		}
	}
}

// TestEngineSearchNonBlockingDuringCompaction: with no mutations in
// flight, concurrent searches across a full seal → merge → swap cycle
// return bit-identical results to the pre-compaction snapshot — readers
// never block on, or observe, the rebuild. Run with -race this also
// checks the reader/maintenance synchronization.
func TestEngineSearchNonBlockingDuringCompaction(t *testing.T) {
	const n = 16
	eng, _ := churnEngine(t, n, SegmentsConfig{Manual: true, MaxMutableValues: 4})
	for i := n; i < n+6; i++ {
		if err := eng.Add(churnRelation(fmt.Sprintf("rel-%02d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"rel-03", "rel-07", "rel-11", "rel-15", "rel-19"} {
		if err := eng.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	expected := make(map[string][]Match)
	for _, q := range churnQueries {
		m, err := eng.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		expected[q] = m
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := churnQueries[(w+i)%len(churnQueries)]
				var got []Match
				var err error
				if w%2 == 0 {
					got, err = eng.Search(q, 5)
				} else {
					var batch []BatchResult
					batch, err = eng.SearchBatch(context.Background(), []Query{{Text: q, K: 5}})
					if err == nil {
						got = batch[0].Matches
					}
				}
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, expected[q]) {
					errs <- fmt.Errorf("query %q changed during compaction:\n got: %v\nwant: %v", q, got, expected[q])
					return
				}
			}
		}(w)
	}

	if err := eng.CompactionCheck(); err != nil { // seal + background index build
		t.Fatal(err)
	}
	if err := eng.Compact(); err != nil { // merge + swap
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if eng.SegmentStats().Compactions < 1 {
		t.Fatal("compaction did not run")
	}
}

// TestEngineSaveLoadChurned: a churned multi-segment engine survives a
// Save/Load roundtrip — segment layout, tombstones and results intact.
func TestEngineSaveLoadChurned(t *testing.T) {
	fed := vaccineFederation(t)
	eng, err := Open(fed, Config{
		Method: ExS, Dim: 128, Seed: 1,
		Segments: SegmentsConfig{Manual: true, MaxMutableValues: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Add(&Relation{
		ID: "mutable-flu", Source: "WHO",
		Columns: []string{"Region", "Strain"},
		Rows:    [][]string{{"Europe", "influenza H1N1"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := eng.CompactionCheck(); err != nil { // seal: multi-segment image
		t.Fatal(err)
	}
	if err := eng.Delete("minerals"); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadEngine(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	a, b := eng.SegmentStats(), re.SegmentStats()
	if a.Segments != b.Segments || a.LiveRelations != b.LiveRelations || a.DeadRelations != b.DeadRelations {
		t.Fatalf("segment stats diverged:\n saved:  %+v\n loaded: %+v", a, b)
	}
	if !reflect.DeepEqual(eng.LiveRelations(), re.LiveRelations()) {
		t.Fatal("live-relation order lost in roundtrip")
	}
	for _, q := range []string{"COVID vaccine", "influenza", "mineral hardness"} {
		x, err := eng.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		y, err := re.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("query %q diverged after load:\n got: %v\nwant: %v", q, y, x)
		}
	}
	// The restored engine keeps mutating and compacting.
	if err := re.Delete("mutable-flu"); err != nil {
		t.Fatal(err)
	}
	if err := re.Compact(); err != nil {
		t.Fatal(err)
	}
	if re.Has("mutable-flu") || re.SegmentStats().DeadRelations != 0 {
		t.Fatalf("post-load churn broken: %+v", re.SegmentStats())
	}
}

// TestEngineAutoMaintenance: with automatic maintenance on (the default), a
// burst of churn past the policy thresholds seals and compacts on its own —
// no explicit Compact calls.
func TestEngineAutoMaintenance(t *testing.T) {
	eng, _ := churnEngine(t, 8, SegmentsConfig{
		MaxMutableValues: 8,
		MaxDeadFraction:  0.1,
		DriftCheckEvery:  4,
	})
	stop := eng.StartCompactor()
	defer stop()
	for i := 8; i < 40; i++ {
		if err := eng.Add(churnRelation(fmt.Sprintf("rel-%02d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if err := eng.Delete(fmt.Sprintf("rel-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Automatic passes run in the background; drive one synchronous check
	// to make the test deterministic about the end state.
	if err := eng.CompactionCheck(); err != nil {
		t.Fatal(err)
	}
	st := eng.SegmentStats()
	if st.Seals == 0 && st.Compactions == 0 {
		t.Fatalf("no automatic maintenance happened: %+v", st)
	}
	if eng.NumRelations() != 24 {
		t.Fatalf("NumRelations=%d, want 24", eng.NumRelations())
	}
}

// TestClusterDeleteUpdate: mutations reach the owning shard, invalidate
// the router's result cache, and keep the shard router consistent.
func TestClusterDeleteUpdate(t *testing.T) {
	fed := NewFederation()
	for i := 0; i < 12; i++ {
		if err := fed.Add(churnRelation(fmt.Sprintf("rel-%02d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := NewCluster(fed, ClusterConfig{
		Config:    Config{Method: ExS, Dim: 64, Seed: 1},
		Shards:    3,
		Policy:    ShardRoundRobin,
		CacheSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the cache.
	res, err := cl.Search("solar energy", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 || res.Matches[0].RelationID != "rel-00" {
		t.Fatalf("warmup: %+v", res.Matches)
	}
	if err := cl.Delete("rel-00"); err != nil {
		t.Fatal(err)
	}
	res, err = cl.Search("solar energy", 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("stale cache served after delete")
	}
	for _, m := range res.Matches {
		if m.RelationID == "rel-00" {
			t.Fatalf("deleted relation served: %+v", res.Matches)
		}
	}
	if err := cl.Delete("rel-00"); err == nil {
		t.Fatal("double delete accepted")
	}
	if cl.NumRelations() != 11 {
		t.Fatalf("NumRelations=%d, want 11", cl.NumRelations())
	}

	// Update rewrites content in place (same shard) and purges the cache.
	upd := churnRelation("rel-01", 1)
	upd.Rows = [][]string{{"lighthouse beacon coastal", "signal"}}
	if err := cl.Update(upd); err != nil {
		t.Fatal(err)
	}
	res, err = cl.Search("lighthouse beacon", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 || res.Matches[0].RelationID != "rel-01" {
		t.Fatalf("updated relation not served: %+v", res.Matches)
	}
	if err := cl.Update(churnRelation("ghost", 0)); err == nil {
		t.Fatal("update of unknown relation accepted")
	}

	// Compaction across shards leaves the cluster consistent.
	if err := cl.Compact(); err != nil {
		t.Fatal(err)
	}
	stats := cl.Stats()
	for i, sh := range stats.Shards {
		if sh.TombstonedRelations != 0 {
			t.Fatalf("shard %d kept tombstones after compact: %+v", i, sh)
		}
		if sh.Segments != 1 {
			t.Fatalf("shard %d segments=%d after compact", i, sh.Segments)
		}
	}
}

// TestClusterSaveLoadChurned: the sharded persistence roundtrip carries
// segment layouts, the owner table and tombstones.
func TestClusterSaveLoadChurned(t *testing.T) {
	fed := NewFederation()
	for i := 0; i < 9; i++ {
		if err := fed.Add(churnRelation(fmt.Sprintf("rel-%02d", i), i)); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := NewCluster(fed, ClusterConfig{
		Config: Config{Method: ExS, Dim: 64, Seed: 1,
			Segments: SegmentsConfig{Manual: true}},
		Shards: 3,
		Policy: ShardRoundRobin,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete("rel-04"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Add(churnRelation("rel-09", 9)); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadCluster(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if re.NumRelations() != cl.NumRelations() {
		t.Fatalf("relations: %d vs %d", re.NumRelations(), cl.NumRelations())
	}
	for _, q := range []string{"solar energy", "coral fish", "honeybee nectar"} {
		a, err := cl.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, err := re.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Matches, b.Matches) {
			t.Fatalf("query %q diverged after load:\n got: %v\nwant: %v", q, b.Matches, a.Matches)
		}
	}
	// Mutations still route correctly after the roundtrip.
	if err := re.Delete("rel-09"); err != nil {
		t.Fatal(err)
	}
	if err := re.Delete("rel-04"); err == nil {
		t.Fatal("tombstone lost in roundtrip: deleted relation resurfaced")
	}
}

// TestClusterConcurrentWritesAndSearches: writers and searchers share a
// cluster with no outside lock. Searches never fail mid-churn, every
// surviving relation keeps a merge rank, and once the writers finish the
// cluster ranks bit-identically to a single engine fed the survivors in
// that merge order.
func TestClusterConcurrentWritesAndSearches(t *testing.T) {
	rels := make(map[string]*Relation)
	fed := NewFederation()
	for i := 0; i < 12; i++ {
		r := churnRelation(fmt.Sprintf("rel-%02d", i), i)
		rels[r.ID] = r
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	const writers, adds = 2, 10
	for w := 0; w < writers; w++ {
		for i := 0; i < adds; i++ {
			r := churnRelation(fmt.Sprintf("w%d-%02d", w, i), i+w)
			rels[r.ID] = r
		}
	}
	cfg := churnConfig(SegmentsConfig{})
	cl, err := NewCluster(fed, ClusterConfig{Config: cfg, Shards: 3, Policy: ShardRoundRobin, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				id := fmt.Sprintf("w%d-%02d", w, i)
				if err := cl.Add(rels[id]); err != nil {
					t.Errorf("add %s: %v", id, err)
					return
				}
				if i%3 == 0 {
					if err := cl.Delete(id); err != nil {
						t.Errorf("delete %s: %v", id, err)
						return
					}
				}
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := cl.Search(churnTopics[i%len(churnTopics)], 5); err != nil {
					t.Errorf("search during churn: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	cl.orderMu.RLock()
	live := make([]string, 0, len(cl.order))
	for id := range cl.order {
		live = append(live, id)
	}
	sort.Slice(live, func(i, j int) bool { return cl.order[live[i]] < cl.order[live[j]] })
	cl.orderMu.RUnlock()
	const want = 12 + writers*(adds-4) // every writer deletes adds 0, 3, 6, 9
	if len(live) != want || cl.NumRelations() != want {
		t.Fatalf("cluster ranks %d relations and reports %d, want %d", len(live), cl.NumRelations(), want)
	}
	ref := NewFederation()
	for _, id := range live {
		if err := ref.Add(rels[id]); err != nil {
			t.Fatal(err)
		}
	}
	single, err := Open(ref, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range churnTopics {
		want, err := single.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Matches) != len(want) {
			t.Fatalf("q=%q: %d matches, engine %d", q, len(got.Matches), len(want))
		}
		for i := range want {
			if got.Matches[i] != want[i] {
				t.Fatalf("q=%q match %d: cluster %+v, engine %+v", q, i, got.Matches[i], want[i])
			}
		}
	}
}
