package semdisco

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
)

// synthFederation builds n deterministic relations with overlapping
// vocabulary, enough for shard partitions to stay non-empty and score ties
// to occur.
func synthFederation(t testing.TB, n int) *Federation {
	t.Helper()
	fed := NewFederation()
	letters := "abcdefghijklmnopqrstuvwxyz"
	word := func(i, j int) string {
		return string(letters[(i+j)%26]) + string(letters[(i*3+j)%26]) + string(letters[(i*7+j*5)%26])
	}
	for i := 0; i < n; i++ {
		r := &Relation{
			ID:      fmt.Sprintf("rel-%03d", i),
			Source:  fmt.Sprintf("src-%d", i%3),
			Columns: []string{"a", "b"},
			Rows: [][]string{
				{word(i, 0), word(i, 1)},
				{word(i, 2), word(i, 3)},
			},
		}
		if err := fed.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	return fed
}

func clusterCfg(shards int) ClusterConfig {
	return ClusterConfig{
		Config: Config{Method: ExS, Dim: 64, Seed: 1},
		Shards: shards,
	}
}

// TestClusterExSEquivalence is the acceptance criterion: a 4-shard ExS
// cluster must return the same relation IDs in the same order as a single
// ExS engine over the same federation — the merge's tie-breaking on global
// insertion order makes the rankings bit-identical.
func TestClusterExSEquivalence(t *testing.T) {
	fed := synthFederation(t, 32)
	eng, err := Open(fed, Config{Method: ExS, Dim: 64, Seed: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, policy := range []ShardPolicy{ShardByHash, ShardRoundRobin} {
		cfg := clusterCfg(4)
		cfg.Policy = policy
		cl, err := NewCluster(fed, cfg)
		if err != nil {
			t.Fatalf("%v: new cluster: %v", policy, err)
		}
		for _, q := range []string{"abc", "bfd", "abc def", "xyz qrs", "mno"} {
			for _, k := range []int{1, 5, 10, 32} {
				want, err := eng.Search(q, k)
				if err != nil {
					t.Fatalf("engine search: %v", err)
				}
				res, err := cl.Search(q, k)
				if err != nil {
					t.Fatalf("%v: cluster search: %v", policy, err)
				}
				if res.Degraded {
					t.Fatalf("%v: unexpected degradation", policy)
				}
				if len(res.Matches) != len(want) {
					t.Fatalf("%v q=%q k=%d: %d matches, engine returned %d",
						policy, q, k, len(res.Matches), len(want))
				}
				for i := range want {
					if res.Matches[i] != want[i] {
						t.Errorf("%v q=%q k=%d match %d: cluster %+v, engine %+v",
							policy, q, k, i, res.Matches[i], want[i])
					}
				}
			}
		}
	}
}

// TestClusterPersistRoundTrip is satellite 3: Save/Load must restore shard
// assignment and produce identical search results.
func TestClusterPersistRoundTrip(t *testing.T) {
	fed := synthFederation(t, 24)
	cfg := clusterCfg(3)
	cfg.CacheSize = 8
	cl, err := NewCluster(fed, cfg)
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	var buf bytes.Buffer
	if err := cl.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	restored, err := LoadCluster(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if restored.NumShards() != cl.NumShards() {
		t.Fatalf("shards: %d vs %d", restored.NumShards(), cl.NumShards())
	}
	if restored.NumRelations() != cl.NumRelations() {
		t.Fatalf("relations: %d vs %d", restored.NumRelations(), cl.NumRelations())
	}
	// Shard assignment survives: per-shard relation counts match.
	before, after := cl.Stats(), restored.Stats()
	for i := range before.Shards {
		if before.Shards[i].Relations != after.Shards[i].Relations {
			t.Errorf("shard %d relations: %d vs %d",
				i, before.Shards[i].Relations, after.Shards[i].Relations)
		}
	}
	for _, q := range []string{"abc", "def ghi", "mno"} {
		want, err := cl.Search(q, 10)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		got, err := restored.Search(q, 10)
		if err != nil {
			t.Fatalf("restored search: %v", err)
		}
		if len(got.Matches) != len(want.Matches) {
			t.Fatalf("q=%q: %d vs %d matches", q, len(got.Matches), len(want.Matches))
		}
		for i := range want.Matches {
			if got.Matches[i] != want.Matches[i] {
				t.Errorf("q=%q match %d: %+v vs %+v", q, i, got.Matches[i], want.Matches[i])
			}
		}
	}
}

// TestClusterAddEquivalence verifies incremental adds keep the federated
// ranking aligned with a single engine receiving the same adds.
func TestClusterAddEquivalence(t *testing.T) {
	fed := synthFederation(t, 16)
	eng, err := Open(fed, Config{Method: ExS, Dim: 64, Seed: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	cl, err := NewCluster(fed, clusterCfg(4))
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	extra := &Relation{
		ID:      "rel-new",
		Source:  "src-x",
		Columns: []string{"a"},
		Rows:    [][]string{{"abc"}, {"def"}},
	}
	if err := eng.Add(extra); err != nil {
		t.Fatalf("engine add: %v", err)
	}
	if err := cl.Add(extra); err != nil {
		t.Fatalf("cluster add: %v", err)
	}
	if err := cl.Add(extra); err == nil {
		t.Fatal("duplicate add must fail")
	}
	want, err := eng.Search("abc def", 10)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	res, err := cl.Search("abc def", 10)
	if err != nil {
		t.Fatalf("cluster search: %v", err)
	}
	if len(res.Matches) != len(want) {
		t.Fatalf("%d vs %d matches", len(res.Matches), len(want))
	}
	for i := range want {
		if res.Matches[i] != want[i] {
			t.Errorf("match %d: %+v vs %+v", i, res.Matches[i], want[i])
		}
	}
}

func TestClusterCacheAndStats(t *testing.T) {
	fed := synthFederation(t, 12)
	cfg := clusterCfg(2)
	cfg.CacheSize = 8
	cl, err := NewCluster(fed, cfg)
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	if res, err := cl.Search("abc", 5); err != nil || res.CacheHit {
		t.Fatalf("first search: hit=%v err=%v", res != nil && res.CacheHit, err)
	}
	if res, err := cl.Search("abc", 5); err != nil || !res.CacheHit {
		t.Fatalf("second search should hit cache: err=%v", err)
	}
	st := cl.Stats()
	if st.CacheHits != 1 || st.Searches != 2 {
		t.Errorf("stats: hits=%d searches=%d, want 1, 2", st.CacheHits, st.Searches)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("shard stats: %d entries", len(st.Shards))
	}
	if st.Shards[0].Searches == 0 && st.Shards[1].Searches == 0 {
		t.Error("no shard recorded a search")
	}
}

func TestClusterTracedStages(t *testing.T) {
	fed := synthFederation(t, 12)
	cl, err := NewCluster(fed, clusterCfg(2))
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	_, stages, err := cl.SearchTraced("abc", 5)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	names := make(map[string]bool)
	for _, s := range stages {
		names[s.Name] = true
	}
	for _, want := range []string{"encode", "scatter", "merge"} {
		if !names[want] {
			t.Errorf("missing stage %q in %v", want, stages)
		}
	}
}

func TestClusterSearchContextCancelled(t *testing.T) {
	fed := synthFederation(t, 12)
	cl, err := NewCluster(fed, clusterCfg(2))
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.SearchContext(ctx, "abc", 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil, clusterCfg(2)); err == nil {
		t.Error("nil federation must fail")
	}
	fed := synthFederation(t, 3)
	if _, err := NewCluster(fed, clusterCfg(8)); err == nil {
		t.Error("more shards than relations must fail")
	}
	// CTS and ANNS shards build too.
	big := synthFederation(t, 24)
	for _, m := range []Method{ANNS, CTS} {
		cfg := ClusterConfig{Config: Config{Method: m, Dim: 32, Seed: 1}, Shards: 2, Policy: ShardRoundRobin}
		cl, err := NewCluster(big, cfg)
		if err != nil {
			t.Fatalf("%v cluster: %v", m, err)
		}
		res, err := cl.Search("abc def", 5)
		if err != nil {
			t.Fatalf("%v search: %v", m, err)
		}
		if len(res.Matches) == 0 {
			t.Errorf("%v returned no matches", m)
		}
	}
}

// TestClusterTelemetryWithTracingDisabled: turning tracing off must not
// turn off the SLO burn rates or the workload analytics — single and
// batched searches are recorded either way.
func TestClusterTelemetryWithTracingDisabled(t *testing.T) {
	c, err := NewCluster(synthFederation(t, 24), ClusterConfig{
		Config: Config{Method: ExS, Dim: 64, Seed: 1, Tracing: TracingConfig{Disable: true}},
		Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Traces() != nil {
		t.Fatal("trace store exists with tracing disabled")
	}
	for _, q := range []string{"abc", "bfd", "abc def", "xyz qrs", "mno"} {
		res, err := c.Search(q, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res.TraceID != "" {
			t.Fatalf("untraced search reports trace ID %q", res.TraceID)
		}
	}
	check := func(want int64) {
		t.Helper()
		if got := c.Workload().Snapshot().Queries; got != want {
			t.Fatalf("workload queries = %d, want %d", got, want)
		}
		for _, o := range c.SLO().Snapshot().Objectives {
			if got := o.Windows[0].Total; got != want {
				t.Fatalf("SLO objective %s window total = %d, want %d", o.Objective, got, want)
			}
		}
	}
	check(5)
	if _, err := c.SearchBatch(context.Background(), []Query{{"abc", 3}, {"mno", 3}, {"qrs", 3}}); err != nil {
		t.Fatal(err)
	}
	check(8)
}
