package semdisco

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"semdisco/internal/netcluster"
)

const (
	netTestSets     = 2
	netTestReplicas = 2
)

// netShardMux is a replica server: the internal wire endpoints over the
// shard engine's encoded backend, plus the write routes the coordinator's
// replication fan-out targets — the same surface cmd/semdisco-serve mounts,
// minus the rest of the public API this test never calls.
func netShardMux(eng *Engine) http.Handler {
	mux := http.NewServeMux()
	sh := netcluster.NewShardHandler(eng.EncodedBackend(), nil, eng.Dim())
	mux.Handle(netcluster.PathEncodedSearch, sh)
	mux.Handle(netcluster.PathEncodedSearchBatch, sh)
	writeErr := func(w http.ResponseWriter, status int, msg string) {
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(netcluster.ErrorBody{Error: msg})
	}
	decode := func(w http.ResponseWriter, r *http.Request) (*Relation, bool) {
		var wr netcluster.Relation
		if err := json.NewDecoder(r.Body).Decode(&wr); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return nil, false
		}
		return &Relation{ID: wr.ID, Source: wr.Source, PageTitle: wr.PageTitle,
			SectionTitle: wr.SectionTitle, Caption: wr.Caption,
			Columns: wr.Columns, Rows: wr.Rows}, true
	}
	mux.HandleFunc("POST /v1/relations", func(w http.ResponseWriter, r *http.Request) {
		rel, ok := decode(w, r)
		if !ok {
			return
		}
		if err := eng.Add(rel); err != nil {
			writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
		w.WriteHeader(http.StatusCreated)
	})
	mux.HandleFunc("PUT /v1/relations/{id}", func(w http.ResponseWriter, r *http.Request) {
		rel, ok := decode(w, r)
		if !ok {
			return
		}
		if err := eng.Update(rel); err != nil {
			writeErr(w, http.StatusNotFound, err.Error())
		}
	})
	mux.HandleFunc("DELETE /v1/relations/{id}", func(w http.ResponseWriter, r *http.Request) {
		if err := eng.Delete(r.PathValue("id")); err != nil {
			writeErr(w, http.StatusNotFound, err.Error())
		}
	})
	return mux
}

type netFixture struct {
	nc      *NetCoordinator
	single  *Engine
	inj     *netcluster.FaultInjector
	servers [][]*httptest.Server
	engines [][]*Engine
}

// newNetFixture stands up the networked deployment in-process: per
// replica its own shard engine (so writes replicate for real) behind a
// loopback server, a fault-injecting transport, a coordinator over the
// replica sets, and a single monolithic engine as the equivalence oracle.
func newNetFixture(t *testing.T, n int) *netFixture {
	t.Helper()
	fed := synthFederation(t, n)
	cfg := Config{Method: ExS, Dim: 64, Seed: 1}
	single, err := Open(fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fx := &netFixture{single: single, inj: netcluster.NewFaultInjector(nil)}
	replicaSets := make([][]string, netTestSets)
	for s := 0; s < netTestSets; s++ {
		var row []*httptest.Server
		var engs []*Engine
		for r := 0; r < netTestReplicas; r++ {
			eng, err := NewNetShard(fed, NetShardConfig{Config: cfg, Sets: netTestSets, Set: s})
			if err != nil {
				t.Fatal(err)
			}
			srv := httptest.NewServer(netShardMux(eng))
			t.Cleanup(srv.Close)
			row = append(row, srv)
			engs = append(engs, eng)
			replicaSets[s] = append(replicaSets[s], srv.URL)
		}
		fx.servers = append(fx.servers, row)
		fx.engines = append(fx.engines, engs)
	}
	nc, err := NewNetCoordinator(fed, replicaSets, NetCoordinatorConfig{
		Config:         cfg,
		AttemptTimeout: 2 * time.Second,
		Transport:      fx.inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.nc = nc
	return fx
}

// assertNetEquivalence runs the cluster acceptance matrix over the wire:
// the networked coordinator must return the same relation IDs, order and
// scores as the single engine, with no degradation.
func assertNetEquivalence(t *testing.T, fx *netFixture, label string) {
	t.Helper()
	for _, q := range []string{"abc", "bfd", "abc def", "xyz qrs", "mno"} {
		for _, k := range []int{1, 5, 10, 32} {
			want, err := fx.single.Search(q, k)
			if err != nil {
				t.Fatalf("%s: engine search: %v", label, err)
			}
			res, err := fx.nc.Search(q, k)
			if err != nil {
				t.Fatalf("%s: networked search q=%q k=%d: %v", label, q, k, err)
			}
			if res.Degraded {
				t.Fatalf("%s: unexpected degradation q=%q k=%d: %v", label, q, k, res.ShardErrors)
			}
			if len(res.Matches) != len(want) {
				t.Fatalf("%s q=%q k=%d: %d matches, engine returned %d",
					label, q, k, len(res.Matches), len(want))
			}
			for i := range want {
				if res.Matches[i] != want[i] {
					t.Fatalf("%s q=%q k=%d match %d: networked %+v, engine %+v",
						label, q, k, i, res.Matches[i], want[i])
				}
			}
		}
	}
}

// TestNetShardPartitioning: every replica of a set builds the identical
// partition, partitions are disjoint, and together they cover the
// federation.
func TestNetShardPartitioning(t *testing.T) {
	fx := newNetFixture(t, 48)
	total := 0
	for s, engs := range fx.engines {
		n := engs[0].NumRelations()
		if n == 0 {
			t.Fatalf("set %d is empty", s)
		}
		for r, eng := range engs {
			if eng.NumRelations() != n {
				t.Fatalf("set %d replica %d holds %d relations, replica 0 holds %d",
					s, r, eng.NumRelations(), n)
			}
		}
		total += n
	}
	if total != 48 {
		t.Fatalf("partitions cover %d relations, want 48", total)
	}
	if fx.nc.NumSets() != netTestSets || fx.nc.NumRelations() != 48 {
		t.Fatalf("coordinator sees %d sets / %d relations", fx.nc.NumSets(), fx.nc.NumRelations())
	}
}

// TestNetClusterExSEquivalence is the wire-level acceptance criterion: the
// networked deployment — coordinator, HTTP fan-out, replica failover, JSON
// round-trip — must be bit-identical to a single ExS engine.
func TestNetClusterExSEquivalence(t *testing.T) {
	fx := newNetFixture(t, 48)
	assertNetEquivalence(t, fx, "healthy")
}

// TestNetClusterReplicaKill: with one replica of a set killed mid-run the
// coordinator must keep answering every query, bit-identically and without
// degradation — the set is still up via its survivor.
func TestNetClusterReplicaKill(t *testing.T) {
	fx := newNetFixture(t, 48)
	assertNetEquivalence(t, fx, "before kill")
	fx.servers[0][0].Close()
	assertNetEquivalence(t, fx, "after kill")
	// The failover is visible in the stats: the killed replica accumulated
	// errors, and the set recorded no full outage.
	st := fx.nc.Stats()
	if st.Groups[0].SetDown != 0 {
		t.Errorf("set 0 recorded %d full outages with a live survivor", st.Groups[0].SetDown)
	}
}

// TestNetClusterSetDownDegrades: a whole replica set unreachable degrades
// the answer to exactly the single-engine ranking filtered to the
// surviving partition — still correct, just partial.
func TestNetClusterSetDownDegrades(t *testing.T) {
	fx := newNetFixture(t, 48)
	for _, srv := range fx.servers[1] {
		srv.Close()
	}
	ring, err := netcluster.NewRing(netTestSets, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"abc", "xyz qrs"} {
		const k = 10
		res, err := fx.nc.Search(q, k)
		if err != nil {
			t.Fatalf("degraded search must not error: %v", err)
		}
		if !res.Degraded {
			t.Fatal("want Degraded with set 1 down")
		}
		if len(res.ShardErrors) == 0 {
			t.Error("degraded result carries no shard errors")
		}
		full, err := fx.single.Search(q, 48)
		if err != nil {
			t.Fatal(err)
		}
		var want []Match
		for _, m := range full {
			if ring.Owner(m.RelationID) == 0 {
				want = append(want, m)
			}
			if len(want) == k {
				break
			}
		}
		if len(res.Matches) != len(want) {
			t.Fatalf("q=%q: %d degraded matches, want %d", q, len(res.Matches), len(want))
		}
		for i := range want {
			if res.Matches[i] != want[i] {
				t.Fatalf("q=%q match %d: degraded %+v, want %+v", q, i, res.Matches[i], want[i])
			}
		}
	}
}

// TestNetClusterWritePath: Add, Update and Delete through the coordinator
// replicate to every replica of the owning set and keep the networked
// ranking bit-identical to a single engine receiving the same mutations.
func TestNetClusterWritePath(t *testing.T) {
	fx := newNetFixture(t, 48)
	ctx := context.Background()
	rel := &Relation{
		ID: "rel-new", Source: "src-9",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"abc", "def"}, {"mno", "xyz"}},
	}
	if err := fx.nc.Add(ctx, rel); err != nil {
		t.Fatalf("networked add: %v", err)
	}
	if err := fx.single.Add(rel); err != nil {
		t.Fatalf("engine add: %v", err)
	}
	if fx.nc.NumRelations() != 49 {
		t.Fatalf("coordinator sees %d relations after add, want 49", fx.nc.NumRelations())
	}
	assertNetEquivalence(t, fx, "after add")

	// A duplicate add fails on every replica of the owning set: a plain
	// error, not a partial write.
	if err := fx.nc.Add(ctx, rel); err == nil {
		t.Fatal("duplicate add must error")
	}

	upd := &Relation{
		ID: "rel-new", Source: "src-9",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"qrs", "bfd"}, {"abc", "mno"}},
	}
	if err := fx.nc.Update(ctx, upd); err != nil {
		t.Fatalf("networked update: %v", err)
	}
	if err := fx.single.Update(upd); err != nil {
		t.Fatalf("engine update: %v", err)
	}
	assertNetEquivalence(t, fx, "after update")

	if err := fx.nc.Delete(ctx, "rel-new"); err != nil {
		t.Fatalf("networked delete: %v", err)
	}
	if err := fx.single.Delete("rel-new"); err != nil {
		t.Fatalf("engine delete: %v", err)
	}
	if fx.nc.NumRelations() != 48 {
		t.Fatalf("coordinator sees %d relations after delete, want 48", fx.nc.NumRelations())
	}
	assertNetEquivalence(t, fx, "after delete")

	if err := fx.nc.Delete(ctx, "rel-new"); err == nil {
		t.Fatal("deleting an unknown relation must error")
	}
}

// TestNetClusterWriteFencesCache: an applied write must invalidate the
// coordinator's cached results — a cached ranking from before the
// mutation is stale.
func TestNetClusterWriteFencesCache(t *testing.T) {
	fx := newNetFixture(t, 48)
	replicaSets := make([][]string, len(fx.servers))
	for s, row := range fx.servers {
		for _, srv := range row {
			replicaSets[s] = append(replicaSets[s], srv.URL)
		}
	}
	nc, err := NewNetCoordinator(synthFederation(t, 48), replicaSets, NetCoordinatorConfig{
		Config:    Config{Method: ExS, Dim: 64, Seed: 1},
		CacheSize: 8,
		Transport: fx.inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := nc.SearchContext(ctx, "abc def", 5); err != nil {
		t.Fatal(err)
	}
	res, err := nc.SearchContext(ctx, "abc def", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("second identical search missed the cache")
	}
	rel := &Relation{ID: "rel-new", Source: "src-9", Columns: []string{"a", "b"},
		Rows: [][]string{{"abc", "def"}, {"abc", "def"}}}
	if err := nc.Add(ctx, rel); err != nil {
		t.Fatal(err)
	}
	res, err = nc.SearchContext(ctx, "abc def", 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("search after a write served the stale cached result")
	}
	if res.Matches[0].RelationID != "rel-new" {
		t.Fatalf("top match after the write = %s, want the added rel-new", res.Matches[0].RelationID)
	}
	if st := nc.Stats(); st.Router.CacheHits != 1 || st.Router.CacheMisses != 2 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/2", st.Router.CacheHits, st.Router.CacheMisses)
	}
}

// TestNetClusterCoordinatorValidation: a coordinator needs a federation
// and at least one non-empty replica set.
func TestNetClusterCoordinatorValidation(t *testing.T) {
	fed := synthFederation(t, 8)
	cfg := NetCoordinatorConfig{Config: Config{Method: ExS, Dim: 16, Seed: 1}}
	if _, err := NewNetCoordinator(NewFederation(), [][]string{{"http://x"}}, cfg); err == nil {
		t.Error("want error for an empty federation")
	}
	if _, err := NewNetCoordinator(fed, nil, cfg); err == nil {
		t.Error("want error for zero replica sets")
	}
	if _, err := NewNetCoordinator(fed, [][]string{{}}, cfg); err == nil {
		t.Error("want error for an empty replica set")
	}
}
