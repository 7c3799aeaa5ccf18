package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies collects per-operation latencies in milliseconds by kind, in the
// order the kinds were declared, and each round's mean latency per kind.
type latencies struct {
	kinds  []string
	byKind map[string][]float64 // every latency
	round  map[string][]float64 // latencies of the round in progress
	means  map[string][]float64 // each completed round's mean latency
	perOp  bool                 // kindMs is the median over operations, not rounds
}

func newLatencies(kinds ...string) *latencies {
	l := &latencies{kinds: kinds, byKind: map[string][]float64{},
		round: map[string][]float64{}, means: map[string][]float64{}}
	for _, k := range kinds {
		l.byKind[k] = nil
	}
	return l
}

// newOpLatencies collects latencies whose kindMs is the median over single
// operations: for a workload whose operations of one kind all do the same
// work, so that a round mean would only add the host's stalls to it.
func newOpLatencies(kinds ...string) *latencies {
	l := newLatencies(kinds...)
	l.perOp = true
	return l
}

func (l *latencies) add(kind string, d time.Duration) {
	l.byKind[kind] = append(l.byKind[kind], ms(d))
	if !l.perOp {
		l.round[kind] = append(l.round[kind], ms(d))
	}
}

// endRound closes the round in progress: each kind's mean latency in it
// becomes one sample of kindMs.
func (l *latencies) endRound() {
	for k, v := range l.round {
		if len(v) > 0 {
			l.means[k] = append(l.means[k], mean(v))
		}
		l.round[k] = v[:0]
	}
}

func (l *latencies) merge(o *latencies) {
	for k, v := range o.byKind {
		l.byKind[k] = append(l.byKind[k], v...)
	}
	for k, v := range o.means {
		l.means[k] = append(l.means[k], v...)
	}
}

func (l *latencies) all() []float64 {
	var out []float64
	for _, k := range l.kinds {
		out = append(out, l.byKind[k]...)
	}
	return out
}

func (l *latencies) count() int { return len(l.all()) }

// kindMs is the end-to-end latency of one operation kind: the median over
// rounds of the kind's mean latency within a round. The mean averages over
// the inputs a round draws (a calibration's cost depends on its data set);
// the median drops rounds that met a pause of the host. With perOp it is
// the median over the kind's operations.
func (l *latencies) kindMs(kind string) float64 {
	if l.perOp {
		return median(l.byKind[kind])
	}
	return median(l.means[kind])
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// batchMedian is the end-to-end setup_s: the median, over consecutive
// batches of n set-ups, of the mean set-up time in a batch. Batching makes a
// short set-up long enough to measure steadily.
func batchMedian(setups []time.Duration, n int) float64 {
	var means []float64
	for i := 0; i+n <= len(setups); i += n {
		sum := time.Duration(0)
		for _, d := range setups[i : i+n] {
			sum += d
		}
		means = append(means, sum.Seconds()/float64(n))
	}
	return median(means)
}
