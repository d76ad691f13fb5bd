package main

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"semdisco"
)

func TestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := supported(c.n); got != c.want {
			t.Errorf("supported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	var ds []time.Duration
	for i := 1; i <= 999; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	if _, err := pctl(ds, 99); err == nil {
		t.Error("p99 of 999 samples: want an error, fewer than ten lie beyond it")
	}
	ds = append(ds, 1000*time.Millisecond)
	if got, err := pctl(ds, 99); err != nil || got != 990 {
		t.Errorf("p99 of 1..1000 ms = %v, %v; want 990", got, err)
	}
	if got, _ := pctl(ds, 50); got != 500 {
		t.Errorf("p50 of 1..1000 ms = %v, want 500", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each input.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
		}
	}
}

// TestOpenLoopLateness: a stall charges the requests queued behind it in
// their latency, which runs from the due time, but not in the
// generator's lateness, which runs from when the sender was free.
func TestOpenLoopLateness(t *testing.T) {
	ops := searchOps(make([]string, 10))
	calls := 0
	outs := openLoop(ops, 1000, 1, time.Minute, func(op) (int, error) {
		calls++
		if calls == 1 {
			time.Sleep(30 * time.Millisecond)
		}
		return 0, nil
	})
	// Op 1 was due 1ms in but could only start once op 0 ended at ~30ms.
	if outs[1].lat < 25*time.Millisecond {
		t.Errorf("op 1 latency %v: want it to include the ~29ms it queued", outs[1].lat)
	}
	for i, o := range outs {
		if o.lag > 10*time.Millisecond {
			t.Errorf("op %d: generator lateness %v, want it to exclude queueing behind op 0", i, o.lag)
		}
		if o.err != nil {
			t.Errorf("op %d: %v", i, o.err)
		}
	}

	// Ops whose turn comes after the deadline fail without being sent.
	calls = 0
	outs = openLoop(searchOps(make([]string, 5)), 100, 1, 15*time.Millisecond, func(op) (int, error) {
		calls++
		return 0, nil
	})
	failed := 0
	for _, o := range outs {
		if o.err != nil {
			failed++
		}
	}
	if calls+failed != 5 || failed < 2 {
		t.Errorf("deadline: %d sent, %d failed; want the ops due after 15ms (at 20, 30, 40ms) failed", calls, failed)
	}
}

func testRelations(n int) []*semdisco.Relation {
	var out []*semdisco.Relation
	for i := 0; i < n; i++ {
		out = append(out, &semdisco.Relation{ID: fmt.Sprintf("r%d", i), Columns: []string{"A"}, Rows: [][]string{{fmt.Sprint(i)}}})
	}
	return out
}

func TestStreamsDeterministic(t *testing.T) {
	pool := make([]string, 300)
	for i := range pool {
		pool[i] = fmt.Sprintf("q%d", i)
	}
	for _, zipf := range []bool{false, true} {
		a, b := queryStream(pool, 5000, zipf, 7), queryStream(pool, 5000, zipf, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("zipf=%v: one seed gave two streams", zipf)
		}
		if reflect.DeepEqual(a, queryStream(pool, 5000, zipf, 8)) {
			t.Errorf("zipf=%v: two seeds gave one stream", zipf)
		}
		top := 0
		counts := map[string]int{}
		for _, q := range a {
			counts[q]++
			top = max(top, counts[q])
		}
		// Uniform: about 17 per query; the Zipf head about 150.
		if skewed := top > 80; skewed != zipf {
			t.Errorf("zipf=%v: most frequent query drawn %d times of 5000", zipf, top)
		}
	}

	extras := testRelations(7)
	gen := func(seed int64, addOnly bool) []op {
		return newWriteModel(testRelations(100)).mixedStream(1000, 0.2, addOnly, pool, extras, seed)
	}
	a := gen(3, false)
	if !reflect.DeepEqual(a, gen(3, false)) {
		t.Fatal("one seed gave two write streams")
	}
	if reflect.DeepEqual(a, gen(4, false)) {
		t.Fatal("two seeds gave one write stream")
	}
	// Replaying the stream in order only ever touches live relations, the
	// live count stays within ±5% (+1) of 100, and ordering constraints
	// point back at the previous write of the same relation.
	live := map[string]bool{}
	for _, r := range testRelations(100) {
		live[r.ID] = true
	}
	writes, kinds := 0, map[opKind]int{}
	lastWrite := map[string]int{}
	for i, o := range a {
		if o.kind == opSearch {
			continue
		}
		writes++
		kinds[o.kind]++
		switch o.kind {
		case opAdd:
			if live[o.id] {
				t.Fatalf("op %d adds live relation %s", i, o.id)
			}
			live[o.id] = true
		case opUpdate, opDelete:
			if !live[o.id] {
				t.Fatalf("op %d: %v of dead relation %s", i, o.kind, o.id)
			}
			if o.kind == opDelete {
				delete(live, o.id)
			}
		}
		if len(live) < 94 || len(live) > 106 {
			t.Fatalf("op %d: %d relations live", i, len(live))
		}
		want, ok := lastWrite[o.id]
		if !ok {
			want = -1
		}
		if o.after != want {
			t.Fatalf("op %d: after=%d, want %d", i, o.after, want)
		}
		lastWrite[o.id] = i
	}
	if writes != 200 {
		t.Errorf("%d writes in 1000 ops at a 0.2 share, want 200", writes)
	}
	for _, kind := range []opKind{opAdd, opUpdate, opDelete} {
		if kinds[kind] < 40 {
			t.Errorf("%d %vs among %d writes: want the kinds balanced", kinds[kind], kind, writes)
		}
	}
	for _, o := range gen(3, true) {
		if o.kind != opSearch && o.kind != opAdd {
			t.Fatalf("add-only stream holds a %v", o.kind)
		}
	}
	// With fewer live relations than recent writes, updates and deletes
	// give way to adds instead of waiting for an idle relation.
	if ops := newWriteModel(testRelations(3)).mixedStream(50, 1, false, pool, extras, 1); len(ops) != 50 {
		t.Fatalf("%d ops from a 3-relation model, want 50", len(ops))
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{Trace: 1, ID: 1, Name: "probe", Start: 0, End: 100 * ms},
		{Trace: 1, ID: 2, Parent: 1, Name: "engine.search", Start: 10 * ms, End: 60 * ms},
		{Trace: 1, ID: 3, Parent: 1, Name: "core.search", Start: 60 * ms, End: 90 * ms},
		{Trace: 1, ID: 4, Parent: 1, Name: "embed.encode", Start: 90 * ms, End: 95 * ms},
		{Trace: 1, ID: 5, Parent: 1, Name: "client.search", Start: 0, End: 9 * ms},
		{Trace: 1, ID: 6, Parent: 5, Name: "httpapi.serve", Start: 1 * ms, End: 8 * ms},
		// A second trace lacks the encode span and is left out.
		{Trace: 7, ID: 7, Name: "probe", Start: 0, End: 50 * ms},
		{Trace: 7, ID: 8, Parent: 7, Name: "engine.search", Start: 0, End: 20 * ms},
		{Trace: 7, ID: 9, Parent: 7, Name: "core.search", Start: 20 * ms, End: 30 * ms},
	}
	tr := byTrace(spans)
	got := selfTimes(tr, "probe>engine.search", "probe>core.search", "probe>embed.encode")
	if want := []time.Duration{15 * time.Millisecond}; !reflect.DeepEqual(got, want) {
		t.Errorf("engine minus core and encode = %v, want %v", got, want)
	}
	if got := selfTimes(tr, "client.search>httpapi.serve", "probe>engine.search"); len(got) != 1 || got[0] != -43*time.Millisecond {
		t.Errorf("serve minus engine = %v, want [-43ms]", got)
	}
	if got := durations(tr, "probe>core.search"); len(got) != 2 {
		t.Errorf("core.search durations = %v, want one per trace", got)
	}
}

func TestBenchmarkFileUpToDate(t *testing.T) {
	disk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeDescription(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(disk, buf.Bytes()) {
		t.Error("BENCHMARK.json differs from the definitions; regenerate it with --describe")
	}
}

// TestSecondSeedRunsClean runs the cheapest workload end to end, traced,
// on a seed other than the one the benchmark was tuned with.
func TestSecondSeedRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full workload")
	}
	r, err := execute(findWorkload("exs-churn"), 2, runSeconds, true)
	if err != nil {
		t.Fatal(err)
	}
	res := r.result(true)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("seed 2: %d of %d operations failed: %v", res.Failed, res.Attempted, r.problems)
	}
	for _, d := range perLayer {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("per-layer metric %s missing", d.name)
		}
	}
}
