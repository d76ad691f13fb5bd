package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentiles are the candidates a timing is reported at, highest first.
var percentiles = []float64{99.9, 99, 95, 90, 50}

// supported reports the highest candidate percentile that has at least ten
// samples beyond it among n, or 0 when even the median has fewer.
func supported(n int) float64 {
	for _, p := range percentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact
			return p
		}
	}
	return 0
}

// pctl is the nearest-rank p-th percentile of ds, in milliseconds. It
// fails when fewer than ten samples lie beyond p.
func pctl(ds []time.Duration, p float64) (float64, error) {
	if supported(len(ds)) < p {
		return 0, fmt.Errorf("p%v needs %d samples, have %d", p, int(math.Ceil(10*100/(100-p))), len(ds))
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return ms(s[rank-1]), nil
}

// windowedPctl splits samples, in the order they were taken, into as many
// consecutive windows as can each support percentile p, and returns the
// median of the windows' p-th percentiles: the typical tail of a window,
// which a burst of outside interference in one window does not set.
func windowedPctl(ds []time.Duration, p float64) (float64, error) {
	size := 1
	for supported(size) < p {
		size++
		if size > len(ds) {
			return pctl(ds, p) // reports the shortfall
		}
	}
	w := len(ds) / size
	var vals []float64
	for i := 0; i < w; i++ {
		v, err := pctl(ds[i*len(ds)/w:(i+1)*len(ds)/w], p)
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quartiles gives the first quartile, median and third quartile of xs the
// way Python's statistics.quantiles(xs, n=4) does (the exclusive method,
// extrapolating at the ends), which is the rule the benchmark's spreads
// are judged by.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), median(s), at(3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
