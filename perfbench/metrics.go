package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef declares one reported metric. For a per-layer metric, moves
// names the end-to-end metric (and workload) a change to that layer should
// move; the benchmark prints it next to the value.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	moves string
}

// endToEnd are the metrics a user of the server sees, reported by every
// untraced run of every workload. The p99 latencies and the closed-loop
// search rates are measured too but reported among the per-layer metrics
// (tail.*, peak.*, closed.*), which carry no bound: over ten runs on a
// shared 2-vCPU VM their spread between the first and third quartile came
// to 0.3-0.7 (p99) and 0.2-0.3 (rates) of the median, at or above the
// largest bound a metric may have.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "search_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "batch_qps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "write_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "recall_at_10", unit: "ratio", better: "higher", bound: 0.1},
	{name: "ndcg_10", unit: "ratio", better: "higher", bound: 0.05},
	{name: "heap_mb", unit: "MiB", better: "lower", bound: 0.15},
}

// perLayer are the metrics of single layers, reported by every traced run
// of every workload. A layer that does no work on a workload reports a
// count of 0 there.
var perLayer = []metricDef{
	{name: "tail.search_p99_ms", unit: "ms", better: "lower", moves: "none: the end-to-end search tail, ungated"},
	{name: "tail.write_p99_ms", unit: "ms", better: "lower", moves: "none: the end-to-end write tail, ungated"},
	{name: "peak.search_qps", unit: "1/s", better: "higher", moves: "none: closed-loop searches with one client per CPU, ungated"},
	{name: "closed.search_qps", unit: "1/s", better: "higher", moves: "none: closed-loop searches from one client, ungated"},
	{name: "httpapi.serve_ms.p50", unit: "ms", better: "lower", moves: "search_p50_ms on exs-churn"},
	{name: "httpapi.serve_ms.p99", unit: "ms", better: "lower", moves: "tail.search_p99_ms on exs-churn"},
	{name: "httpapi.overhead_ms.p50", unit: "ms", better: "lower", moves: "search_p50_ms on exs-churn"},
	{name: "httpapi.resp_bytes_per_search", unit: "bytes", better: "lower", moves: "search_p50_ms on exs-churn"},
	{name: "httpapi.write_interference_ms", unit: "ms", better: "lower", moves: "tail.search_p99_ms on exs-churn"},
	{name: "embed.encode_ms.p50", unit: "ms", better: "lower", moves: "search_p50_ms on exs-churn"},
	{name: "embed.token_cache_hit_ratio", unit: "ratio", better: "higher", moves: "search_p50_ms on exs-churn"},
	{name: "embed.allocs_per_encode", unit: "count", better: "lower", moves: "search_p50_ms on exs-churn"},
	{name: "engine.search_ms.p50", unit: "ms", better: "lower", moves: "search_p50_ms on every workload"},
	{name: "engine.search_ms.p99", unit: "ms", better: "lower", moves: "tail.search_p99_ms on every workload"},
	{name: "engine.telemetry_ms.p50", unit: "ms", better: "lower", moves: "search_p50_ms on exs-churn"},
	{name: "obs.overhead_pct", unit: "%", better: "lower", moves: "search_p50_ms on exs-churn"},
	{name: "core.search_ms.p50", unit: "ms", better: "lower", moves: "search_p50_ms on anns-read and cts-netcluster"},
	{name: "core.search_ms.p99", unit: "ms", better: "lower", moves: "tail.search_p99_ms on anns-read and cts-netcluster"},
	{name: "core.allocs_per_query", unit: "count", better: "lower", moves: "peak.search_qps on anns-read"},
	{name: "core.alloc_bytes_per_query", unit: "bytes", better: "lower", moves: "peak.search_qps on anns-read"},
	{name: "core.distance_comps_per_query", unit: "count", better: "lower", moves: "search_p50_ms on the workload of each method"},
	{name: "core.values_scanned_per_query", unit: "count", better: "lower", moves: "search_p50_ms on exs-churn"},
	{name: "core.candidates_per_query", unit: "count", better: "lower", moves: "search_p50_ms on anns-read and cts-netcluster"},
	{name: "core.batch_ms_per_query", unit: "ms", better: "lower", moves: "batch_qps on anns-read"},
	{name: "hnsw.hops_per_query", unit: "count", better: "lower", moves: "search_p50_ms on anns-read and cts-netcluster"},
	{name: "pq.lookups_per_query", unit: "count", better: "lower", moves: "search_p50_ms on anns-read"},
	{name: "vec.flops_per_query", unit: "count", better: "lower", moves: "search_p50_ms (computed as 2*dim*distance comps)"},
	{name: "segment.write_ms.p50", unit: "ms", better: "lower", moves: "write_p50_ms on exs-churn"},
	{name: "segment.write_ms.p99", unit: "ms", better: "lower", moves: "tail.write_p99_ms on exs-churn"},
	{name: "segment.seals_per_1k_writes", unit: "count", better: "lower", moves: "tail.search_p99_ms and tail.write_p99_ms on exs-churn"},
	{name: "segment.compactions_per_1k_writes", unit: "count", better: "lower", moves: "tail.search_p99_ms and tail.write_p99_ms on exs-churn"},
	{name: "segment.count_max", unit: "count", better: "lower", moves: "tail.search_p99_ms on exs-churn"},
	{name: "segment.mutable_values_max", unit: "count", better: "lower", moves: "tail.search_p99_ms on exs-churn"},
	{name: "cluster.search_ms.p50", unit: "ms", better: "lower", moves: "search_p50_ms on cts-netcluster"},
	{name: "cluster.cache_hit_ratio", unit: "ratio", better: "higher", moves: "search_p50_ms and peak.search_qps on cts-netcluster"},
	{name: "cluster.coalesced_ratio", unit: "ratio", better: "higher", moves: "search_p50_ms and peak.search_qps on cts-netcluster"},
	{name: "netcluster.wire_ms.p50", unit: "ms", better: "lower", moves: "search_p50_ms on cts-netcluster"},
	{name: "netcluster.wire_ms.p99", unit: "ms", better: "lower", moves: "tail.search_p99_ms on cts-netcluster"},
	{name: "netcluster.wire_overhead_ms.p50", unit: "ms", better: "lower", moves: "search_p50_ms on cts-netcluster"},
	{name: "netcluster.req_bytes_per_query", unit: "bytes", better: "lower", moves: "search_p50_ms on cts-netcluster"},
	{name: "netcluster.resp_bytes_per_query", unit: "bytes", better: "lower", moves: "search_p50_ms on cts-netcluster"},
	{name: "netcluster.retries", unit: "count", better: "lower", moves: "tail.search_p99_ms on cts-netcluster"},
	{name: "netcluster.hedges", unit: "count", better: "lower", moves: "tail.search_p99_ms on cts-netcluster"},
	{name: "setup.build_share.embed", unit: "s/s", better: "lower", moves: "setup_s on anns-read and cts-netcluster"},
	{name: "setup.build_share.umap", unit: "s/s", better: "lower", moves: "setup_s on cts-netcluster"},
	{name: "setup.build_share.hdbscan", unit: "s/s", better: "lower", moves: "setup_s on cts-netcluster"},
	{name: "setup.build_share.hnsw_insert", unit: "s/s", better: "lower", moves: "setup_s on anns-read and cts-netcluster"},
	{name: "setup.build_share.pq_train", unit: "s/s", better: "lower", moves: "setup_s on anns-read"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower", moves: "peak.search_qps on anns-read"},
	{name: "runtime.gc_per_1k_queries", unit: "count", better: "lower", moves: "peak.search_qps on anns-read"},
	{name: "bench.gen_lag_p99_ms", unit: "ms", better: "lower", moves: "none: checks the run is valid"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", moves: "none: checks the run is valid"},
}

// benchmarkFile is the layout of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []e2eJSON      `json:"end_to_end"`
	PerLayer   []layerJSON    `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// runSeconds is how long one run measures.
const runSeconds = 18

// describe renders BENCHMARK.json from the definitions above.
func describe() benchmarkFile {
	b := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{w.name, w.why})
	}
	for _, m := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, e2eJSON{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		b.PerLayer = append(b.PerLayer, layerJSON{m.name, m.unit, m.better})
	}
	return b
}

func writeDescription(w io.Writer) error {
	out, err := json.MarshalIndent(describe(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line every run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
