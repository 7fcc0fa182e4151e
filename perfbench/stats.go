package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"rslpa/internal/graph"
	"rslpa/internal/metrics"
)

// minBeyond is how many samples must lie above a reported percentile.
// A percentile with fewer samples beyond it is decided by a handful of
// outliers and does not repeat from run to run.
const minBeyond = 10

// reportQuantile returns the percentile to report for a sample of n values
// when want is the named one: want itself when at least minBeyond samples
// lie beyond it, otherwise the highest percentile that has minBeyond
// samples beyond it, but never below the median.
func reportQuantile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	q := math.Min(want, float64(n-minBeyond)/float64(n))
	return math.Max(q, 0.5)
}

// summary is a latency (or size) distribution reduced to its median and
// one upper percentile, with the percentile actually used and the count.
type summary struct {
	P50 float64
	Pq  float64
	Q   float64
	N   int
}

func summarize(xs []float64, want float64) summary {
	s := slices.Clone(xs)
	sort.Float64s(s)
	q := reportQuantile(len(s), want)
	return summary{P50: metrics.Quantile(s, 0.5), Pq: metrics.Quantile(s, q), Q: q, N: len(s)}
}

func (s summary) String() string {
	return fmt.Sprintf("p50=%.3f p%.4g=%.3f n=%d", s.P50, 100*s.Q, s.Pq, s.N)
}

func quantile(xs []float64, q float64) float64 { return summarize(xs, q).Pq }

func median(xs []float64) float64 { return summarize(xs, 0.5).P50 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// epochIndex maps every edited edge (graph.EdgeKey) to the epoch of the
// journaled feed batch that applied it; batches[e-1] is epoch e. The generator never touches an
// edge twice in a run, so an edge appearing in two batches means the feed
// is not what was sent.
func epochIndex(batches [][]graph.Edit) (map[uint64]uint64, error) {
	idx := make(map[uint64]uint64)
	for i, b := range batches {
		epoch := uint64(i + 1)
		for _, e := range b {
			k := graph.EdgeKey(e.U, e.V)
			if prev, dup := idx[k]; dup {
				return nil, fmt.Errorf("edge %d-%d journaled at epochs %d and %d", e.U, e.V, prev, epoch)
			}
			idx[k] = epoch
		}
	}
	return idx, nil
}

// epochLog records when each epoch was first observed: seen[e] is the
// first time a snapshot with epoch >= e was seen (an observer that jumps
// from epoch a to b stamps a+1..b with the same time).
type epochLog struct {
	seen []time.Time
}

func (l *epochLog) observe(epoch uint64, at time.Time) {
	for uint64(len(l.seen)) <= epoch {
		l.seen = append(l.seen, at)
	}
}

// at returns when epoch was first observed.
func (l *epochLog) at(epoch uint64) (time.Time, bool) {
	if epoch >= uint64(len(l.seen)) {
		return time.Time{}, false
	}
	return l.seen[epoch], true
}

// visibility is the edit-to-visible latency of each edit of one POST:
// from the POST's scheduled send time to the first observation of a
// snapshot whose epoch contains the edit. An edit that no journaled epoch
// contains, or whose epoch was never observed, is counted in failed.
func visibility(due time.Time, keys []uint64, epochOf map[uint64]uint64, log *epochLog) (lat []float64, failed int) {
	for _, k := range keys {
		e, ok := epochOf[k]
		if !ok {
			failed++
			continue
		}
		t, ok := log.at(e)
		if !ok {
			failed++
			continue
		}
		lat = append(lat, ms(t.Sub(due)))
	}
	return lat, failed
}

// step is one rung of an offered-rate ladder after the run.
type step struct {
	Rate     float64 // offered edits per second
	P99      float64 // writer edit-to-visible at the reported percentile, ms
	Growing  bool    // latency rose across the step: the backlog grew
	Achieved float64 // edits made visible per second during the step
}

// growing reports whether latencies, in send order, rose across a step:
// the mean of its last quarter exceeds twice the mean of its first
// quarter plus slack. A backlog that grows without bound shows as a
// latency ramp; a steady queue does not.
func growing(lat []float64, slackMs float64) bool {
	q := len(lat) / 4
	if q == 0 {
		return false
	}
	return mean(lat[len(lat)-q:]) > 2*mean(lat[:q])+slackMs
}

// highestWithin returns the index of the highest ladder step whose p99 is
// within limitMs with a non-growing backlog, or -1 if none passes.
func highestWithin(steps []step, limitMs float64) int {
	best := -1
	for i, s := range steps {
		if s.P99 <= limitMs && !s.Growing {
			best = i
		}
	}
	return best
}

// rate is the per-second rate at which epochs first seen in [from, to)
// delivered size(e) units of work, measured between the first and the
// last of those observations: the first epoch's work arrived before the
// interval the rate is taken over, so it is not counted.
func (l *epochLog) rate(size func(e uint64) float64, from, to time.Time) float64 {
	var first, last time.Time
	var total float64
	n := 0
	for e := 1; e < len(l.seen); e++ {
		t := l.seen[e]
		if t.Before(from) || !t.Before(to) {
			continue
		}
		if n == 0 {
			first = t
		} else {
			total += size(uint64(e))
		}
		last = t
		n++
	}
	if n < 2 || !last.After(first) {
		return 0
	}
	return total / last.Sub(first).Seconds()
}
