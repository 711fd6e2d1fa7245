package main

import (
	"errors"
	"math"
	"sort"
)

// errSkip marks an operation the benchmark expects not to apply (an
// inter-thread scheme on a kernel it cannot express, verify's
// ErrNotApplicable). Skips count as attempted but never as failed.
var errSkip = errors.New("not applicable")

// tally counts operation outcomes.
type tally struct {
	attempted, skipped, failed int
}

// add classifies one operation's error: nil passes, an error wrapping
// errSkip is an expected skip, anything else is a failure. It reports
// whether the operation failed.
func (t *tally) add(err error) bool {
	t.attempted++
	switch {
	case err == nil:
	case errors.Is(err, errSkip):
		t.skipped++
	default:
		t.failed++
		return true
	}
	return false
}

// failFrac is failed operations over attempted ones; skips count as
// attempted, not failed.
func (t tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the value at 1-based rank ceil(p/100 × n) of the sorted
// samples. It also returns how many samples lie strictly beyond that rank.
// xs is not modified. ok is false for an empty sample.
func nearestRank(xs []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p > 100 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n - rank, true
}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile is nearestRank restricted to percentiles with at least
// minBeyond samples beyond them; ok is false otherwise.
func tailPercentile(xs []float64, p float64) (float64, bool) {
	v, beyond, ok := nearestRank(xs, p)
	return v, ok && beyond >= minBeyond
}

// median is the 50th nearest-rank percentile (0 for an empty sample).
func median(xs []float64) float64 {
	v, _, _ := nearestRank(xs, 50)
	return v
}
