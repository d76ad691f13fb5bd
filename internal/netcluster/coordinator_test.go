package netcluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"semdisco/internal/cluster"
)

// These tests run a networked coordinator's data path below the semdisco
// facade: a cluster.Router over one replica Group per set, the shape
// semdisco.NewNetCoordinator wires. Cache fencing on writes belongs to
// the facade and is tested there (TestNetClusterWriteFencesCache).

// writeLog records the mutations one replica server received.
type writeLog struct {
	mu  sync.Mutex
	ops []string
}

func (l *writeLog) add(op string) {
	l.mu.Lock()
	l.ops = append(l.ops, op)
	l.mu.Unlock()
}

func (l *writeLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ops)
}

// globalOrder is the merge tie-break for rankedMatches IDs ("rel-<set>-<i>"
// maps to set*100+i), mirroring the insertion order a real federation
// would carry.
func globalOrder(id string) int {
	var set, i int
	if _, err := fmt.Sscanf(id, "rel-%d-%d", &set, &i); err == nil {
		return set*100 + i
	}
	return 1 << 30
}

type coordFixture struct {
	router   *cluster.Router
	groups   []*Group
	inj      *FaultInjector
	urls     [][]string
	backends []*fakeBackend
	logs     [][]*writeLog
}

// newCoordFixture stands up sets×replicas replica servers — each serving
// its set's fake backend over the wire protocol plus logging write
// endpoints — behind one fault-injecting transport, one Group per set,
// and a Router over the groups.
func newCoordFixture(t *testing.T, sets, replicas int, opts GroupOptions) *coordFixture {
	t.Helper()
	fx := &coordFixture{inj: NewFaultInjector(nil)}
	newClient := func(u string) *Client { return NewClient(u, fx.inj) }
	var shards []cluster.Shard
	for s := 0; s < sets; s++ {
		backend := &fakeBackend{matches: rankedMatches(s, 10)}
		fx.backends = append(fx.backends, backend)
		h := NewShardHandler(backend, nil, 0)
		var urls []string
		var logs []*writeLog
		for r := 0; r < replicas; r++ {
			log := &writeLog{}
			mux := http.NewServeMux()
			mux.Handle(PathEncodedSearch, h)
			mux.Handle(PathEncodedSearchBatch, h)
			mux.HandleFunc("POST /v1/relations", func(w http.ResponseWriter, r *http.Request) {
				log.add("add")
				w.WriteHeader(http.StatusCreated)
			})
			mux.HandleFunc("DELETE /v1/relations/{id}", func(w http.ResponseWriter, r *http.Request) {
				log.add("delete " + r.PathValue("id"))
			})
			mux.HandleFunc("PUT /v1/relations/{id}", func(w http.ResponseWriter, r *http.Request) {
				log.add("update " + r.PathValue("id"))
			})
			srv := httptest.NewServer(mux)
			t.Cleanup(srv.Close)
			urls = append(urls, srv.URL)
			logs = append(logs, log)
		}
		g, err := NewGroup(s, urls, newClient, opts)
		if err != nil {
			t.Fatal(err)
		}
		fx.groups = append(fx.groups, g)
		shards = append(shards, g)
		fx.urls = append(fx.urls, urls)
		fx.logs = append(fx.logs, logs)
	}
	router, err := cluster.NewRouter(shards, make([]int, sets), cluster.Options{
		Method: "ExS",
		Encode: func(string) []float32 { return testVec },
		Order:  globalOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.router = router
	return fx
}

func TestCoordinatorValidation(t *testing.T) {
	enc := func(string) []float32 { return testVec }
	ord := func(string) int { return 0 }
	newClient := func(u string) *Client { return NewClient(u, nil) }
	if _, err := cluster.NewRouter(nil, nil, cluster.Options{Encode: enc, Order: ord}); err == nil {
		t.Error("want error for zero replica sets")
	}
	g, err := NewGroup(0, []string{"http://x"}, newClient, GroupOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sets := []cluster.Shard{g}
	if _, err := cluster.NewRouter(sets, []int{0}, cluster.Options{Order: ord}); err == nil {
		t.Error("want error for missing Encode")
	}
	if _, err := cluster.NewRouter(sets, []int{0}, cluster.Options{Encode: enc}); err == nil {
		t.Error("want error for missing Order")
	}
	if _, err := NewGroup(0, nil, newClient, GroupOptions{}); err == nil {
		t.Error("want error for an empty replica set")
	}
}

// TestCoordinatorMatchesRouter is the wire layer's correctness invariant:
// the merge over replica servers must be bit-identical — IDs, order, and
// float32 scores — to a Router over the same backends in process.
func TestCoordinatorMatchesRouter(t *testing.T) {
	fx := newCoordFixture(t, 3, 2, GroupOptions{})
	shards := make([]cluster.Shard, len(fx.backends))
	counts := make([]int, len(fx.backends))
	for i, b := range fx.backends {
		shards[i] = b
		counts[i] = len(b.matches)
	}
	router, err := cluster.NewRouter(shards, counts, cluster.Options{
		Method: "ExS",
		Encode: func(string) []float32 { return testVec },
		Order:  globalOrder,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, k := range []int{1, 3, 5, 10, 30} {
		want, err := router.Search(ctx, "q", k)
		if err != nil {
			t.Fatalf("k=%d router: %v", k, err)
		}
		got, err := fx.router.Search(ctx, "q", k)
		if err != nil {
			t.Fatalf("k=%d over the wire: %v", k, err)
		}
		if got.Degraded {
			t.Fatalf("k=%d: degraded with no faults: %v", k, got.ShardErrors)
		}
		if !reflect.DeepEqual(got.Matches, want.Matches) {
			t.Fatalf("k=%d:\nwire   %+v\nrouter %+v", k, got.Matches, want.Matches)
		}
	}
}

// TestCoordinatorBatchMatchesSequential: the batched fan-out must answer
// each item exactly as the sequential path would.
func TestCoordinatorBatchMatchesSequential(t *testing.T) {
	fx := newCoordFixture(t, 2, 2, GroupOptions{})
	ctx := context.Background()
	items := []cluster.BatchQuery{{Query: "a", K: 3}, {Query: "b", K: 7}, {Query: "c", K: 15}}
	batch, err := fx.router.SearchBatch(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(items) {
		t.Fatalf("%d results for %d items", len(batch), len(items))
	}
	for i, it := range items {
		want, err := fx.router.Search(ctx, it.Query, it.K)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i].Matches, want.Matches) {
			t.Fatalf("item %d:\nbatch      %+v\nsequential %+v", i, batch[i].Matches, want.Matches)
		}
	}
}

// TestCoordinatorDegradedWhenSetDown: one whole replica set failing
// degrades the answer to the surviving partitions; every set failing is
// an error.
func TestCoordinatorDegradedWhenSetDown(t *testing.T) {
	fx := newCoordFixture(t, 2, 1, GroupOptions{})
	ctx := context.Background()
	fx.inj.Set(fx.urls[1][0], Fault{Drop: true, Remaining: -1})
	res, err := fx.router.Search(ctx, "q", 10)
	if err != nil {
		t.Fatalf("partial degradation must not error: %v", err)
	}
	if !res.Degraded {
		t.Fatal("want Degraded with set 1 down")
	}
	if len(res.ShardErrors) == 0 {
		t.Error("degraded result carries no shard errors")
	}
	if len(res.Matches) == 0 {
		t.Fatal("degraded result is empty")
	}
	for _, m := range res.Matches {
		if globalOrder(m.RelationID) >= 100 {
			t.Fatalf("match %s came from the downed set", m.RelationID)
		}
	}
	fx.inj.Set(fx.urls[0][0], Fault{Drop: true, Remaining: -1})
	if _, err := fx.router.Search(ctx, "q2", 10); err == nil {
		t.Fatal("want error with every set down")
	}
}

// TestCoordinatorWriteFanOut: a write reaches every replica of its set
// and no other set.
func TestCoordinatorWriteFanOut(t *testing.T) {
	fx := newCoordFixture(t, 2, 2, GroupOptions{})
	ctx := context.Background()
	rel := Relation{ID: "new-1", Source: "s", Columns: []string{"a"}, Rows: [][]string{{"x"}}}
	const owner = 1
	if err := fx.groups[owner].Add(ctx, rel); err != nil {
		t.Fatalf("add: %v", err)
	}
	for s := range fx.logs {
		for r, log := range fx.logs[s] {
			want := 0
			if s == owner {
				want = 1
			}
			if got := log.count(); got != want {
				t.Errorf("set %d replica %d saw %d writes, want %d", s, r, got, want)
			}
		}
	}
}

// TestCoordinatorWritePartialFailure: a mutation applied on some replicas
// of the set but not others must surface as *WriteError naming the
// replicas needing repair — not vanish, and not look like a clean failure.
func TestCoordinatorWritePartialFailure(t *testing.T) {
	fx := newCoordFixture(t, 1, 2, GroupOptions{})
	g := fx.groups[0]
	ctx := context.Background()
	fx.inj.Set(fx.urls[0][1], Fault{Drop: true, Remaining: -1})
	rel := Relation{ID: "new-2", Source: "s", Columns: []string{"a"}, Rows: [][]string{{"x"}}}
	err := g.Add(ctx, rel)
	var we *WriteError
	if !errors.As(err, &we) {
		t.Fatalf("want *WriteError, got %v", err)
	}
	if we.Applied != 1 || we.Replicas != 2 {
		t.Errorf("applied %d/%d, want 1/2", we.Applied, we.Replicas)
	}
	if len(we.Failed) != 1 || we.Failed[0] != fx.urls[0][1] {
		t.Errorf("Failed = %v, want [%s]", we.Failed, fx.urls[0][1])
	}
	if fx.logs[0][0].count() != 1 || fx.logs[0][1].count() != 0 {
		t.Errorf("replica write counts %d/%d, want 1/0",
			fx.logs[0][0].count(), fx.logs[0][1].count())
	}

	// Every replica failing is a plain error, not a partial WriteError.
	fx.inj.Set(fx.urls[0][0], Fault{Drop: true, Remaining: -1})
	err = g.Delete(ctx, "new-2")
	if err == nil {
		t.Fatal("want error with every replica down")
	}
	if errors.As(err, &we) {
		t.Fatalf("total failure must not be a *WriteError: %v", err)
	}

	// Recovery: a cleared transport applies the write everywhere.
	fx.inj.Clear(fx.urls[0][0])
	fx.inj.Clear(fx.urls[0][1])
	if err := g.Update(ctx, rel); err != nil {
		t.Fatalf("update after recovery: %v", err)
	}
}

// TestCoordinatorHungReplicaTail: end to end, a wedged replica must cost
// at most the attempt timeout, never hang the query.
func TestCoordinatorHungReplicaTail(t *testing.T) {
	fx := newCoordFixture(t, 2, 2, GroupOptions{AttemptTimeout: 100 * time.Millisecond})
	fx.inj.Set(fx.urls[0][0], Fault{Hang: true, Remaining: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := fx.router.Search(ctx, "q", 10)
	if err != nil {
		t.Fatalf("search with a hung replica: %v", err)
	}
	if res.Degraded {
		t.Fatal("one hung replica of two must not degrade the set")
	}
}
