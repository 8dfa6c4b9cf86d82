package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"time"
)

// median returns the median of xs (0 for an empty slice). xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return 0.5 * (s[n/2-1] + s[n/2])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-th percentile of an ascending
// slice: the smallest value with at least p% of the samples at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(p, len(sorted)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// rank is the 1-based nearest rank of percentile p among n samples,
// computed so that p·n/100 landing on a whole number (99.9% of 10000)
// is not pushed up by float rounding.
func rank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailLadder lists the percentiles a tail latency may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest percentile of tailLadder that has
// at least ten of n samples strictly beyond it, so a reported tail is
// never a single outlier. ok is false below 20 samples, where not even
// the median qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// tail returns the tail latency of samples and the percentile it was
// taken at: tailPercentile's choice, or the maximum (reported as
// percentile 100) when there are too few samples for any percentile.
func tail(samples []float64) (value, p float64) {
	s := sortedCopy(samples)
	if p, ok := tailPercentile(len(s)); ok {
		return percentile(s, p), p
	}
	if len(s) == 0 {
		return 0, 100
	}
	return s[len(s)-1], 100
}

// poissonSchedule returns the send offsets of an open-loop Poisson
// arrival process at rate requests per second over dur: exponential
// inter-arrival gaps drawn from a generator seeded by seed alone, so
// the same seed always yields the same schedule.
func poissonSchedule(seed uint64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewPCG(seed, seed^0x5851f42d4c957f2d))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}
