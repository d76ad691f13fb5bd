package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords loads a records.jsonl file.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Result != nil {
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}

// verdict classifies one end-to-end metric of one workload, before vs
// after, by the rules the benchmark is judged by:
//
//   - improved: the after side wins at least nine tenths of the seed-paired
//     runs (ties count for neither) and the medians differ by more than the
//     before side's quartile spread;
//   - worse: the after median is worse than the before median by more than
//     the metric's bound;
//   - unresolved: the before side's spread is wider than the bound, unless
//     every after run beats every before run;
//   - unchanged otherwise.
func verdict(def metricDef, before, after []float64, pairs [][2]float64) string {
	if len(before) == 0 || len(after) == 0 {
		return "unresolved"
	}
	sign := 1.0 // positive when after is better
	if def.better == "lower" {
		sign = -1
	}
	bq1, bmed, bq3 := quartiles(before)
	amed := median(after)
	wins, decided := 0, 0
	for _, p := range pairs {
		d := sign * (p[1] - p[0])
		if d != 0 {
			decided++
		}
		if d > 0 {
			wins++
		}
	}
	if len(pairs) > 0 && float64(wins) >= 0.9*float64(len(pairs)) && math.Abs(amed-bmed) > bq3-bq1 {
		return "improved"
	}
	if sign*(amed-bmed) < -def.bound*math.Abs(bmed) {
		return "worse"
	}
	if bmed != 0 && (bq3-bq1)/math.Abs(bmed) > def.bound && !allBetter(sign, before, after) {
		return "unresolved"
	}
	return "unchanged"
}

func allBetter(sign float64, before, after []float64) bool {
	for _, a := range after {
		for _, b := range before {
			if sign*(a-b) <= 0 {
				return false
			}
		}
	}
	return true
}

// compareRecords prints, per workload and end-to-end metric, each side's
// median and quartiles and the verdict, then the per-layer medians of the
// traced runs with their relative change.
func compareRecords(w io.Writer, beforePath, afterPath string) error {
	before, err := readRecords(beforePath)
	if err != nil {
		return err
	}
	after, err := readRecords(afterPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-16s %12s %25s %12s %25s  %s\n", "workload", "metric", "before", "[q1, q3]", "after", "[q1, q3]", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			b, a, pairs := series(before, after, wl.name, false, def.name)
			if len(b) == 0 && len(a) == 0 {
				continue
			}
			bq1, bmed, bq3 := quartiles(b)
			aq1, amed, aq3 := quartiles(a)
			fmt.Fprintf(w, "%-15s %-16s %12.4f [%11.4f, %11.4f] %12.4f [%11.4f, %11.4f]  %s (n=%d/%d)\n",
				wl.name, def.name, bmed, bq1, bq3, amed, aq1, aq3, verdict(def, b, a, pairs), len(b), len(a))
		}
	}
	fmt.Fprintf(w, "\nper-layer medians of traced runs\n%-15s %-36s %12s %12s %9s\n", "workload", "metric", "before", "after", "change")
	for _, wl := range workloads {
		for _, def := range perLayer {
			b, a, _ := series(before, after, wl.name, true, def.name)
			if len(b) == 0 && len(a) == 0 {
				continue
			}
			bm, am := median(b), median(a)
			change := "n/a"
			if bm != 0 && len(b) > 0 && len(a) > 0 {
				change = fmt.Sprintf("%+.1f%%", (am-bm)/math.Abs(bm)*100)
			}
			fmt.Fprintf(w, "%-15s %-36s %12.4f %12.4f %9s\n", wl.name, def.name, bm, am, change)
		}
	}
	return nil
}

// series extracts one metric's values for a workload from both sides, and
// the pairs of runs that used the same seed.
func series(before, after []record, workload string, traced bool, name string) (b, a []float64, pairs [][2]float64) {
	pick := func(recs []record) ([]float64, map[int64]float64) {
		var vals []float64
		bySeed := map[int64]float64{}
		for _, rec := range recs {
			if rec.Workload != workload || rec.Trace != traced {
				continue
			}
			m, ok := rec.Result.Metrics[name]
			if !ok {
				continue
			}
			vals = append(vals, m.Value)
			bySeed[rec.Seed] = m.Value
		}
		return vals, bySeed
	}
	b, bs := pick(before)
	a, as := pick(after)
	seeds := make([]int64, 0, len(bs))
	for s := range bs {
		if _, ok := as[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		pairs = append(pairs, [2]float64{bs[s], as[s]})
	}
	return b, a, pairs
}
