package netcluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semdisco/internal/core"
	"semdisco/internal/obs"
)

// Metric series recorded by replica groups. Per-replica series carry
// set="<set>" and replica="<index>" labels; per-set series carry set.
const (
	// MetricAttempts counts shard attempts (primaries, retries and hedges).
	MetricAttempts = "semdisco_netcluster_attempts_total"
	// MetricReplicaErrors counts failed attempts per replica.
	MetricReplicaErrors = "semdisco_netcluster_replica_errors_total"
	// MetricRetries counts sequential failover retries after a replica
	// failed.
	MetricRetries = "semdisco_netcluster_retries_total"
	// MetricGroupHedges counts hedge attempts launched against a replica
	// running past the set's observed p95.
	MetricGroupHedges = "semdisco_netcluster_hedges_total"
	// MetricGroupHedgeWins counts hedges that beat the replica they raced.
	MetricGroupHedgeWins = "semdisco_netcluster_hedge_wins_total"
	// MetricSetDown counts searches where every replica of a set failed —
	// the degraded answers the coordinator served.
	MetricSetDown = "semdisco_netcluster_set_down_total"
)

// MetricHelp maps the group metrics to their Prometheus HELP texts.
var MetricHelp = map[string]string{
	MetricAttempts:       "Replica attempts: primaries, failover retries and hedges.",
	MetricReplicaErrors:  "Failed replica attempts.",
	MetricRetries:        "Sequential failover retries after a replica failure.",
	MetricGroupHedges:    "Hedge attempts raced across replicas of a set.",
	MetricGroupHedgeWins: "Replica hedges that beat the attempt they raced.",
	MetricSetDown:        "Searches in which an entire replica set failed.",
}

// GroupOptions tunes one replica set's failover behavior.
type GroupOptions struct {
	// AttemptTimeout bounds each replica attempt; an expired attempt fails
	// over to the next replica. 0 leaves attempts bounded only by the
	// query's own deadline.
	AttemptTimeout time.Duration
	// Hedge races a second replica against an attempt running past the
	// set's observed p95 latency — hedging across replicas, not a retry of
	// the same process, so a wedged replica cannot also absorb the hedge.
	Hedge bool
	// MinHedgeDelay floors the hedge trigger; default 2ms.
	MinHedgeDelay time.Duration
	// HedgeAfter is how many recorded latencies the set needs before its
	// p95 is trusted for hedging; default 16.
	HedgeAfter int
	// Registry receives the group's metrics; nil disables them.
	Registry *obs.Registry
}

func (o GroupOptions) withDefaults() GroupOptions {
	if o.MinHedgeDelay == 0 {
		o.MinHedgeDelay = 2 * time.Millisecond
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = 16
	}
	return o
}

// Sequential failover retries back off exponentially from backoffBase
// (base, 2·base, 4·base, …), each sleep capped at backoffMax and given up
// to 50% added jitter.
const (
	backoffBase = 5 * time.Millisecond
	backoffMax  = 250 * time.Millisecond
)

// replicaState is one replica's health counters.
type replicaState struct {
	attempts atomic.Int64
	errors   atomic.Int64
}

// Group is one replica set presented to the cluster Router as a single
// logical Shard: R servers holding identical copies of one partition.
// SearchEncoded tries replicas with per-attempt timeouts, hedges a second
// replica against a slow attempt, retries failures on the next replica
// with exponential backoff plus jitter, and only fails — degrading the
// federated answer — when every replica of the set has failed.
type Group struct {
	set     int
	clients []*Client
	opts    GroupOptions
	reg     *obs.Registry
	state   []*replicaState
	// rr rotates the preferred replica so read load spreads across the
	// set instead of hammering replica 0.
	rr        atomic.Uint64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	retries   atomic.Int64
	setDown   atomic.Int64

	// lat is the set's recent successful-attempt latency window, the p95
	// estimator behind the hedge trigger.
	latMu    sync.Mutex
	lat      []time.Duration
	latNext  int
	latCount int
}

const groupLatencyWindow = 128

// NewGroup builds a replica set over shard base URLs sharing one
// transport.
func NewGroup(set int, urls []string, rt func(string) *Client, opts GroupOptions) (*Group, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("netcluster: replica set %d has no members", set)
	}
	g := &Group{
		set:   set,
		opts:  opts.withDefaults(),
		reg:   opts.Registry,
		lat:   make([]time.Duration, groupLatencyWindow),
		state: make([]*replicaState, len(urls)),
	}
	for i, u := range urls {
		g.clients = append(g.clients, rt(u))
		g.state[i] = &replicaState{}
	}
	return g, nil
}

func (g *Group) recordLatency(d time.Duration) {
	g.latMu.Lock()
	g.lat[g.latNext] = d
	g.latNext = (g.latNext + 1) % len(g.lat)
	if g.latCount < len(g.lat) {
		g.latCount++
	}
	g.latMu.Unlock()
}

// quantile estimates the q-quantile of the latency window; ok is false
// with fewer than min samples.
func (g *Group) quantile(q float64, min int) (time.Duration, bool) {
	g.latMu.Lock()
	defer g.latMu.Unlock()
	if g.latCount < min {
		return 0, false
	}
	tmp := make([]time.Duration, g.latCount)
	copy(tmp, g.lat[:g.latCount])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	return obs.SampleQuantile(tmp, q), true
}

// hedgeDelay returns when a cross-replica hedge should launch, and
// whether hedging is armed: enabled, more than one replica, and enough
// latency history for the p95 to mean something.
func (g *Group) hedgeDelay() (time.Duration, bool) {
	if !g.opts.Hedge || len(g.clients) < 2 {
		return 0, false
	}
	p95, ok := g.quantile(0.95, g.opts.HedgeAfter)
	if !ok {
		return 0, false
	}
	if p95 < g.opts.MinHedgeDelay {
		p95 = g.opts.MinHedgeDelay
	}
	return p95, true
}

// backoff returns the nth sequential-retry sleep: exponential from
// backoffBase, capped at backoffMax, with up to 50% added jitter so a
// coordinator fleet retrying a flapping replica does not beat on it in
// lockstep.
func backoff(n int) time.Duration {
	d := backoffBase << uint(n)
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// outcome is one replica attempt's result; payload holds the
// call-specific answer.
type outcome struct {
	payload interface{}
	spans   []obs.SpanRecord
	err     error
	replica int
	hedge   bool
	dur     time.Duration
}

// race runs the replica-failover state machine around one remote call:
// launch the preferred replica, hedge the next one against a straggler,
// fail over sequentially (with backoff) on errors, and return the first
// success. It returns an error only when every replica failed or the
// query's own context died. Remote spans of the winning attempt are
// grafted into the trace carried by ctx.
func (g *Group) race(ctx context.Context, do func(context.Context, *Client) (interface{}, []obs.SpanRecord, error)) (interface{}, error) {
	n := len(g.clients)
	order := make([]int, n)
	start := int(g.rr.Add(1)-1) % n
	for i := range order {
		order[i] = (start + i) % n
	}

	ch := make(chan outcome, n) // buffered: losers never block or leak
	launched, done := 0, 0
	launch := func(hedge bool) {
		idx := order[launched]
		launched++
		g.state[idx].attempts.Add(1)
		g.reg.Counter(obs.L(MetricAttempts, "set", strconv.Itoa(g.set), "replica", strconv.Itoa(idx))).Inc()
		go func() {
			actx := ctx
			var cancel context.CancelFunc
			if g.opts.AttemptTimeout > 0 {
				actx, cancel = context.WithTimeout(ctx, g.opts.AttemptTimeout)
				defer cancel()
			}
			t0 := time.Now()
			payload, spans, err := do(actx, g.clients[idx])
			ch <- outcome{payload: payload, spans: spans, err: err, replica: idx, hedge: hedge, dur: time.Since(t0)}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if d, ok := g.hedgeDelay(); ok {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}
	var (
		backoffC <-chan time.Time
		backoffT *time.Timer
	)
	defer func() {
		if backoffT != nil {
			backoffT.Stop()
		}
	}()
	retryN := 0
	var lastErr error
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case o := <-ch:
			done++
			if o.err == nil {
				if o.hedge {
					g.hedgeWins.Add(1)
					g.reg.Counter(obs.L(MetricGroupHedgeWins, "set", strconv.Itoa(g.set))).Inc()
				}
				g.recordLatency(o.dur)
				obs.TraceFrom(ctx).Adopt(o.spans)
				return o.payload, nil
			}
			lastErr = o.err
			g.state[o.replica].errors.Add(1)
			g.reg.Counter(obs.L(MetricReplicaErrors, "set", strconv.Itoa(g.set), "replica", strconv.Itoa(o.replica))).Inc()
			var re *RemoteError
			if errors.As(o.err, &re) && !re.Retryable() {
				// The request itself is bad (4xx): every replica would answer
				// the same, so failing over just multiplies the damage.
				return nil, o.err
			}
			if launched < n && backoffC == nil {
				g.retries.Add(1)
				g.reg.Counter(obs.L(MetricRetries, "set", strconv.Itoa(g.set))).Inc()
				backoffT = time.NewTimer(backoff(retryN))
				backoffC = backoffT.C
				retryN++
			} else if done == launched && launched == n {
				g.setDown.Add(1)
				g.reg.Counter(obs.L(MetricSetDown, "set", strconv.Itoa(g.set))).Inc()
				return nil, fmt.Errorf("netcluster: replica set %d down (%d replicas failed): %w", g.set, n, lastErr)
			}
		case <-backoffC:
			backoffC = nil
			if launched < n {
				launch(false)
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < n {
				g.hedges.Add(1)
				g.reg.Counter(obs.L(MetricGroupHedges, "set", strconv.Itoa(g.set))).Inc()
				launch(true)
			}
		}
	}
}

// SearchEncoded implements cluster.Shard: one pre-encoded query answered
// by whichever replica wins the failover race. The remote cost report is
// folded into the accumulator ctx carries (the Router's per-shard Cost).
func (g *Group) SearchEncoded(ctx context.Context, q []float32, k int) ([]core.Match, error) {
	type payload struct {
		ms   []core.Match
		cost obs.CostReport
	}
	out, err := g.race(ctx, func(actx context.Context, cl *Client) (interface{}, []obs.SpanRecord, error) {
		ms, cost, spans, err := cl.SearchEncoded(actx, q, k)
		if err != nil {
			return nil, nil, err
		}
		return payload{ms: ms, cost: cost}, spans, nil
	})
	if err != nil {
		return nil, err
	}
	p := out.(payload)
	obs.CostFrom(ctx).AddReport(p.cost)
	return p.ms, nil
}

// SearchEncodedBatch implements cluster.BatchShard: the whole block rides
// one failover race, so a straggling replica costs one hedge for the
// batch, not one per query.
func (g *Group) SearchEncodedBatch(ctx context.Context, qs [][]float32, ks []int, costs []*obs.Cost) ([][]core.Match, error) {
	type payload struct {
		ms    [][]core.Match
		costs []obs.CostReport
	}
	out, err := g.race(ctx, func(actx context.Context, cl *Client) (interface{}, []obs.SpanRecord, error) {
		ms, reps, spans, err := cl.SearchEncodedBatch(actx, qs, ks)
		if err != nil {
			return nil, nil, err
		}
		return payload{ms: ms, costs: reps}, spans, nil
	})
	if err != nil {
		return nil, err
	}
	p := out.(payload)
	for i := range p.costs {
		if i < len(costs) {
			costs[i].AddReport(p.costs[i])
		}
	}
	return p.ms, nil
}

// WriteError is a partial write-path failure: some replicas of the owning
// set applied the mutation and others did not. The mutation is durable on
// the replicas that took it; the listed ones need repair (or a retry of
// the same idempotent call).
type WriteError struct {
	Op       string
	ID       string
	Set      int
	Failed   []string // replica URLs that failed
	Applied  int      // replicas that applied the write
	LastErr  error
	Replicas int
}

func (e *WriteError) Error() string {
	return fmt.Sprintf("netcluster: %s %q on set %d applied on %d/%d replicas (failed: %s): %v",
		e.Op, e.ID, e.Set, e.Applied, e.Replicas, strings.Join(e.Failed, ", "), e.LastErr)
}

// Unwrap exposes the last replica error to errors.Is/As.
func (e *WriteError) Unwrap() error { return e.LastErr }

// writeAll applies one mutation to every replica of the set, in member
// order. A partial application returns *WriteError naming the replicas
// needing repair; every replica failing returns a plain error.
func (g *Group) writeAll(ctx context.Context, op, id string, apply func(context.Context, *Client) error) error {
	var (
		failed  []string
		lastErr error
		applied int
	)
	for _, cl := range g.clients {
		if err := apply(ctx, cl); err != nil {
			failed = append(failed, cl.URL())
			lastErr = err
			continue
		}
		applied++
	}
	if lastErr == nil {
		return nil
	}
	if applied == 0 {
		return fmt.Errorf("netcluster: %s %q failed on every replica of set %d: %w", op, id, g.set, lastErr)
	}
	return &WriteError{Op: op, ID: id, Set: g.set, Failed: failed, Applied: applied,
		LastErr: lastErr, Replicas: len(g.clients)}
}

// Add ingests one new relation on every replica of the set.
func (g *Group) Add(ctx context.Context, rel Relation) error {
	return g.writeAll(ctx, "add", rel.ID, func(ctx context.Context, cl *Client) error {
		return cl.AddRelation(ctx, rel)
	})
}

// Delete tombstones a relation on every replica of the set.
func (g *Group) Delete(ctx context.Context, id string) error {
	return g.writeAll(ctx, "delete", id, func(ctx context.Context, cl *Client) error {
		return cl.DeleteRelation(ctx, id)
	})
}

// Update replaces a relation's contents on every replica of the set.
func (g *Group) Update(ctx context.Context, rel Relation) error {
	return g.writeAll(ctx, "update", rel.ID, func(ctx context.Context, cl *Client) error {
		return cl.UpdateRelation(ctx, rel)
	})
}

// ReplicaStats is one replica's health snapshot.
type ReplicaStats struct {
	URL      string `json:"url"`
	Attempts int64  `json:"attempts"`
	Errors   int64  `json:"errors"`
}

// GroupStats is one replica set's health snapshot.
type GroupStats struct {
	Set       int            `json:"set"`
	Replicas  []ReplicaStats `json:"replicas"`
	Hedges    int64          `json:"hedges"`
	HedgeWins int64          `json:"hedge_wins"`
	Retries   int64          `json:"retries"`
	SetDown   int64          `json:"set_down"`
	P50MS     float64        `json:"p50_ms"`
	P95MS     float64        `json:"p95_ms"`
}

// Stats snapshots the set's failover counters and attempt latency.
func (g *Group) Stats() GroupStats {
	s := GroupStats{
		Set:       g.set,
		Hedges:    g.hedges.Load(),
		HedgeWins: g.hedgeWins.Load(),
		Retries:   g.retries.Load(),
		SetDown:   g.setDown.Load(),
	}
	p50, _ := g.quantile(0.50, 1)
	p95, _ := g.quantile(0.95, 1)
	s.P50MS = float64(p50) / float64(time.Millisecond)
	s.P95MS = float64(p95) / float64(time.Millisecond)
	for i, c := range g.clients {
		s.Replicas = append(s.Replicas, ReplicaStats{
			URL:      c.URL(),
			Attempts: g.state[i].attempts.Load(),
			Errors:   g.state[i].errors.Load(),
		})
	}
	return s
}
