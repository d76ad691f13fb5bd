package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"semdisco"
	"semdisco/internal/corpus"
)

type opKind uint8

const (
	opSearch opKind = iota
	opAdd
	opUpdate
	opDelete
)

func (k opKind) String() string {
	return [...]string{"search", "add", "update", "delete"}[k]
}

// op is one request of a generated stream.
type op struct {
	kind  opKind
	query string             // opSearch
	rel   *semdisco.Relation // opAdd, opUpdate: the relation's new content
	id    string             // opUpdate, opDelete: the target
	// after is the index of the previous op of the stream touching the same
	// relation, or -1: the op is not sent before that one has completed, so
	// the two sending goroutines never reorder writes to one relation.
	after int
}

// outcome is what the load generator observed for one op.
type outcome struct {
	kind opKind
	// lat runs from the op's due time (open loop) or send time (closed
	// loop) to the end of the response.
	lat time.Duration
	// lag is how late the generator sent the op: the time from the later
	// of its due time and its sending goroutine becoming free to the send.
	lag   time.Duration
	bytes int
	err   error
}

// queryPool lists the corpus' distinct query texts in generation order.
func queryPool(cor *corpus.Corpus) []string {
	seen := make(map[string]bool, len(cor.Queries))
	var out []string
	for _, q := range cor.Queries {
		if !seen[q.Text] {
			seen[q.Text] = true
			out = append(out, q.Text)
		}
	}
	return out
}

// queryStream draws n queries from pool: uniformly, or Zipf-skewed over a
// seeded permutation of the pool so that the popular queries are not
// simply the first ones generated.
func queryStream(pool []string, n int, zipf bool, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	if !zipf {
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
		}
		return out
	}
	perm := rng.Perm(len(pool))
	z := rand.NewZipf(rng, zipfS, zipfV, uint64(len(pool)-1))
	for i := range out {
		out[i] = pool[perm[z.Uint64()]]
	}
	return out
}

// Skewed streams draw rank k with probability proportional to
// (zipfV+k)^-zipfS. The offset flattens the head: with a few dominant
// queries, which texts the seed makes popular would set a run's cost.
const (
	zipfS = 1.1
	zipfV = 10
)

// writeModel tracks the live relations a write stream leaves behind, in
// insertion order, so the stream only updates and deletes live relations
// and the final corpus is known without asking the system.
type writeModel struct {
	rels  map[string]*semdisco.Relation
	order []string // insertion order; deleted IDs are dropped lazily
	base  int
	next  int
	// last maps a relation ID to the index of the last op touching it.
	last map[string]int
}

// newWriteModel starts a model from live relations in insertion order.
func newWriteModel(live []*semdisco.Relation) *writeModel {
	m := &writeModel{rels: make(map[string]*semdisco.Relation), last: make(map[string]int)}
	for _, r := range live {
		m.rels[r.ID] = r
		m.order = append(m.order, r.ID)
	}
	m.base = len(m.order)
	return m
}

// live lists the live relations in insertion order. An update keeps its
// relation's place only when the engine does; the engine reports the
// order it uses (LiveRelations), so this order is used for choosing
// targets, never for checking.
func (m *writeModel) live() []string {
	out := m.order[:0:0]
	for _, id := range m.order {
		if _, ok := m.rels[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// mixedStream generates n ops of which a writeFrac share, evenly spread,
// are writes. Writes are adds only, or adds, updates and deletes in equal
// measure, steered so the live relation count stays within ±5% of its
// start. Write content cycles through extras. Updates and deletes target
// live relations no write among the last 16 touched; when there is none,
// the write is an add.
func (m *writeModel) mixedStream(n int, writeFrac float64, addOnly bool, queries []string, extras []*semdisco.Relation, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, n)
	var recent []string
	busy := func(id string) bool {
		for _, r := range recent {
			if r == id {
				return true
			}
		}
		return false
	}
	// pickLive draws live relations until one is not busy; the caller
	// checks that one exists.
	pickLive := func() string {
		live := m.live()
		for {
			if id := live[rng.Intn(len(live))]; !busy(id) {
				return id
			}
		}
	}
	anyIdle := func() bool {
		for id := range m.rels {
			if !busy(id) {
				return true
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		if int(float64(i+1)*writeFrac) == int(float64(i)*writeFrac) {
			ops = append(ops, op{kind: opSearch, query: queries[i%len(queries)], after: -1})
			continue
		}
		kind := opKind(1 + rng.Intn(3))
		switch nLive := len(m.rels); {
		case addOnly:
			kind = opAdd
		case nLive > m.base+m.base/20:
			kind = opDelete
		case nLive < m.base-m.base/20:
			kind = opAdd
		}
		if kind != opAdd && !anyIdle() {
			kind = opAdd
		}
		o := op{kind: kind, after: -1}
		src := extras[m.next%len(extras)]
		switch kind {
		case opAdd:
			o.id = fmt.Sprintf("churn-%d", m.next)
			o.rel = withID(src, o.id)
			m.order = append(m.order, o.id)
			m.rels[o.id] = o.rel
		case opUpdate:
			o.id = pickLive()
			o.rel = withID(src, o.id)
			m.rels[o.id] = o.rel
		case opDelete:
			o.id = pickLive()
			delete(m.rels, o.id)
		}
		m.next++
		if prev, ok := m.last[o.id]; ok {
			o.after = prev
		}
		m.last[o.id] = len(ops)
		recent = append(recent, o.id)
		if len(recent) > 16 {
			recent = recent[1:]
		}
		ops = append(ops, o)
	}
	return ops
}

func withID(r *semdisco.Relation, id string) *semdisco.Relation {
	c := *r
	c.ID = id
	return &c
}

// openLoop sends ops on a fixed schedule, op i due at start + i/rate, from
// at most workers goroutines, and times each op from its due time, so a
// stall also charges the ops queued behind it. Ops whose turn comes after
// deadline are not sent and fail.
func openLoop(ops []op, rate float64, workers int, deadline time.Duration, do func(op) (int, error)) []outcome {
	out := make([]outcome, len(ops))
	done := make([]chan struct{}, len(ops))
	for i, o := range ops {
		if o.kind != opSearch {
			done[i] = make(chan struct{})
		}
	}
	interval := float64(time.Second) / rate
	start := time.Now().Add(time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				o := outcome{kind: ops[i].kind, lag: sent.Sub(later(due, free))}
				if ops[i].after >= 0 {
					<-done[ops[i].after]
				}
				if sent.Sub(start) > deadline {
					o.err = fmt.Errorf("not sent: the run passed its %v deadline", deadline)
				} else {
					o.bytes, o.err = do(ops[i])
				}
				free = time.Now()
				o.lat = free.Sub(due)
				out[i] = o
				if done[i] != nil {
					close(done[i])
				}
			}
		}()
	}
	wg.Wait()
	return out
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// closedLoop runs workers clients for d, each sending its next request as
// soon as the previous one completed; do(worker) sends a worker's next
// request and reports how many queries it answered.
func closedLoop(d time.Duration, workers int, do func(w int) (int, error)) (answered int, errs []error, elapsed time.Duration) {
	perN := make([]int, workers)
	perErr := make([][]error, workers)
	start := time.Now()
	stop := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				n, err := do(w)
				perN[w] += n
				perErr[w] = append(perErr[w], err)
			}
		}(w)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for w := range perN {
		answered += perN[w]
		errs = append(errs, perErr[w]...)
	}
	return answered, errs, elapsed
}
