package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"semdisco"
	"semdisco/internal/corpus"
)

// sweepScales are the corpus sizes of the method-crossover sweep, as
// multiples of the WikiTables profile's 600 relations.
var sweepScales = []float64{0.15, 0.5, 1.0, 1.5}

// runSweep measures the library single-query p50 of ExS, ANNS and CTS at
// each sweep size and reports the sizes at which ANNS and CTS overtake
// ExS. It answers the paper's Table 4 / Figure 3 question on this machine
// and is not part of any workload or check.
func runSweep(w io.Writer, seed int64) error {
	methods := []semdisco.Method{semdisco.ExS, semdisco.ANNS, semdisco.CTS}
	sizes := make([]int, len(sweepScales))
	p50 := make(map[semdisco.Method][]float64)
	fmt.Fprintf(w, "%10s %10s %12s %12s\n", "relations", "method", "p50_ms", "build_s")
	for i, scale := range sweepScales {
		p := corpus.WikiTables().Scaled(scale)
		p.Seed = seed
		p.QueriesPerClass = 120
		cor := corpus.Generate(p)
		sizes[i] = cor.Federation.Len()
		pool := queryPool(cor)
		for _, m := range methods {
			start := time.Now()
			eng, err := semdisco.Open(cor.Federation, config(cor, m))
			if err != nil {
				return fmt.Errorf("%v at %d relations: %w", m, sizes[i], err)
			}
			build := time.Since(start)
			var ds []time.Duration
			for j := 0; j < 3*len(pool); j++ {
				t := time.Now()
				if _, err := eng.SearchContext(context.Background(), pool[j%len(pool)], k); err != nil {
					return err
				}
				ds = append(ds, time.Since(t))
			}
			v, err := pctl(ds, 50)
			if err != nil {
				return err
			}
			p50[m] = append(p50[m], v)
			fmt.Fprintf(w, "%10d %10v %12.4f %12.2f\n", sizes[i], m, v, build.Seconds())
		}
	}
	for _, m := range methods[1:] {
		fmt.Fprintf(w, "ExS/%v crossover: %s\n", m, crossover(sizes, p50[semdisco.ExS], p50[m]))
	}
	return nil
}

// crossover finds the corpus size at which a method's p50 first drops
// below the baseline's, interpolating linearly between measured sizes.
func crossover(sizes []int, base, method []float64) string {
	ratio := func(i int) float64 { return method[i] / base[i] }
	if ratio(0) < 1 {
		return fmt.Sprintf("faster already at %d relations (the smallest size measured)", sizes[0])
	}
	for i := 1; i < len(sizes); i++ {
		if ratio(i) < 1 {
			r0, r1 := ratio(i-1), ratio(i)
			at := float64(sizes[i-1]) + (r0-1)/(r0-r1)*float64(sizes[i]-sizes[i-1])
			return fmt.Sprintf("about %.0f relations (between %d and %d)", at, sizes[i-1], sizes[i])
		}
	}
	return fmt.Sprintf("not faster up to %d relations (the largest size measured)", sizes[len(sizes)-1])
}
