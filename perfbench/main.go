// Command perfbench is semdisco's end-to-end benchmark. It serves each
// workload's system over loopback HTTP in this process, drives it from at
// most one sending goroutine per CPU, checks the answers, and prints every
// metric by name with its unit. The last line of standard output is the
// run's result as one JSON object.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload exs-churn --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1          # every workload
//	bash perfbench/run.sh --trace 1 --workload anns-read   # per-layer metrics
//	bash perfbench/run.sh --compare before.jsonl after.jsonl
//	bash perfbench/run.sh --sweep                          # method crossover
//	bash perfbench/run.sh --describe > BENCHMARK.json
//
// Every run appends a record of its result to records.jsonl in the -out
// directory; --compare reads two such files, one per commit. A traced run
// also writes its spans there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of the generated corpus, queries and writes")
		seconds  = flag.Int("seconds", runSeconds, "seconds of timed load per run")
		trace    = flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run; 0 the end-to-end ones")
		out      = flag.String("out", ".bench_build/perfbench", "directory for run records and span files")
		compare  = flag.Bool("compare", false, "compare two record files given as arguments: before, after")
		sweep    = flag.Bool("sweep", false, "measure the ExS/ANNS/CTS latency crossover over corpus sizes")
		describe = flag.Bool("describe", false, "print BENCHMARK.json")
	)
	flag.Parse()
	var err error
	switch {
	case *describe:
		err = writeDescription(os.Stdout)
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare takes two record files")
			break
		}
		err = compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *sweep:
		err = runSweep(os.Stdout, *seed)
	default:
		var ok bool
		ok, err = runWorkloads(*name, *seed, *seconds, *trace == 1, *out)
		if err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// record is one line of records.jsonl.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  int     `json:"seconds"`
	Time     string  `json:"time"`
	Result   *result `json:"result"`
}

// runWorkloads runs one workload, or all in turn, prints each metric and
// finally the result line, and reports whether every check passed. With
// several workloads the result line sums their counts and prefixes each
// metric with its workload's name.
func runWorkloads(name string, seed int64, seconds int, traced bool, outDir string) (bool, error) {
	ws := workloads
	if name != "all" {
		w := findWorkload(name)
		if w == nil {
			return false, fmt.Errorf("unknown workload %q", name)
		}
		ws = []*workload{w}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	total := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		r, err := execute(w, seed, seconds, traced)
		if err != nil {
			return false, fmt.Errorf("%s: %w", w.name, err)
		}
		res := r.result(traced)
		printRun(r, res, traced)
		if err := appendRecord(filepath.Join(outDir, "records.jsonl"), record{
			Workload: w.name, Seed: seed, Trace: traced, Seconds: seconds,
			Time: time.Now().UTC().Format(time.RFC3339), Result: res,
		}); err != nil {
			return false, err
		}
		if traced {
			if err := r.rec.writeFile(spanFile(outDir, w.name, seed)); err != nil {
				return false, err
			}
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for m, v := range res.Metrics {
			if len(ws) > 1 {
				m = w.name + "/" + m
			}
			total.Metrics[m] = v
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return total.Correct, nil
}

// result assembles the run's result line: the end-to-end metrics, or the
// per-layer ones when traced. A run is correct when no operation failed
// and every reported metric is a number.
func (r *run) result(traced bool) *result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := r.out[d.name]
		if !ok || m.Value != m.Value { // missing or NaN
			res.Correct = false
			r.problems = append(r.problems, "metric "+d.name+" was not measured")
			m = metric{Value: 0, Unit: d.unit}
		}
		res.Metrics[d.name] = m
	}
	return res
}

func printRun(r *run, res *result, traced bool) {
	fmt.Printf("== %s seed=%d seconds=%d trace=%v\n", r.w.name, r.seed, r.seconds, traced)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("%-36s %14.4f %s", d.name, res.Metrics[d.name].Value, d.unit)
		if d.moves != "" {
			line += "   -> " + d.moves
		}
		fmt.Println(line)
	}
	for _, name := range sortedKeys(r.out) {
		if _, reported := res.Metrics[name]; !reported {
			fmt.Printf("%-36s %14.4f %s   (measured, not reported by this kind of run)\n", name, r.out[name].Value, r.out[name].Unit)
		}
	}
	frac := float64(res.Failed) / float64(max(res.Attempted, 1))
	fmt.Printf("%-36s %14.6f ratio  (%d of %d operations)\n", "ops_failed_frac", frac, res.Failed, res.Attempted)
	if len(r.problems) > 0 {
		fmt.Println("problems:\n  " + strings.Join(r.problems, "\n  "))
	}
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for key := range m {
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
