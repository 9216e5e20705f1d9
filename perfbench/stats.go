package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 < q <= 1): the
// smallest sample with at least q·n samples at or below it. xs is sorted
// in place. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is quantile(xs, 0.5) on a copy, so callers keep their order.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// mean is the arithmetic mean of xs; an empty input yields NaN.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail reports a latency distribution the way the benchmark publishes
// it: the median, the 90th percentile and how many samples back them.
type tail struct {
	P50, P90 float64
	N        int
	// Beyond90 is the number of samples strictly above the p90 rank; the
	// p90 is only trusted when at least ten samples lie beyond it.
	Beyond90 int
}

func summarize(xs []float64) tail {
	s := append([]float64(nil), xs...)
	t := tail{N: len(s)}
	if len(s) == 0 {
		t.P50, t.P90 = math.NaN(), math.NaN()
		return t
	}
	t.P50 = quantile(s, 0.5)
	t.P90 = quantile(s, 0.9)
	t.Beyond90 = len(s) - int(math.Ceil(0.9*float64(len(s))))
	return t
}

// interval is a closed-open time span in nanoseconds.
type interval struct{ Start, End int64 }

// unionLen is the total length covered by ivs, counting overlapping
// parts once. Router.Batch runs its sub-batches in parallel, so the
// children of one routed batch overlap and their durations must not be
// summed.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.Start > cur.End {
			total += cur.End - cur.Start
			cur = iv
			continue
		}
		if iv.End > cur.End {
			cur.End = iv.End
		}
	}
	return total + cur.End - cur.Start
}

// selfTime is a parent span's duration minus the time the union of its
// children covers. Children must lie inside the parent, as a routed
// request's replica spans lie inside its Router.Batch call.
func selfTime(parent int64, children []interval) int64 {
	return parent - unionLen(children)
}

// outcome counts operations and the ones that did not come back right.
// An operation is one request (a batch or a single query) on the routed
// workloads and one oracle call on oracle-paper; it fails on a transport
// error, a non-200 status or any wrong answer.
type outcome struct {
	Attempted, Failed int64
}

func (o *outcome) add(p outcome) {
	o.Attempted += p.Attempted
	o.Failed += p.Failed
}

// answeredFrac is the share of attempted operations answered correctly,
// 1 − failed/attempted. Zero attempts answer 0: nothing was shown right.
func (o outcome) answeredFrac() float64 {
	if o.Attempted == 0 {
		return 0
	}
	return 1 - float64(o.Failed)/float64(o.Attempted)
}

// rateWindow is the window over which the routed workloads' rates and
// latency percentiles are taken; each is the median over a phase's whole
// windows, so a short burst of interference from outside the process
// (steal on a shared VM) moves a window rather than the reported value.
const rateWindow = time.Second

// windowRate is the median, over the whole windows of span, of the work
// completed per second in each. ends are completion times since the
// phase began, each completion delivering per units of work. A span
// shorter than one window yields the overall rate.
func windowRate(ends []time.Duration, per float64, span, window time.Duration) float64 {
	n := int(span / window)
	if n == 0 {
		return per * float64(len(ends)) / span.Seconds()
	}
	sums := make([]float64, n)
	for _, e := range ends {
		if k := int(e / window); k >= 0 && k < n {
			sums[k] += per
		}
	}
	for k := range sums {
		sums[k] /= window.Seconds()
	}
	return median(sums)
}

// windowTail is the median over the whole windows of span of each
// window's p50 and p90, for the latencies lat completed at ends. Only
// windows with at least 100 samples count, so each window's p90 has ten
// samples beyond it; without any such window it summarizes all samples.
func windowTail(ends []time.Duration, lat []float64, span, window time.Duration) (t tail, windows int) {
	n := int(span / window)
	byWin := make([][]float64, n)
	for i, e := range ends {
		if k := int(e / window); k >= 0 && k < n {
			byWin[k] = append(byWin[k], lat[i])
		}
	}
	var p50, p90 []float64
	for _, w := range byWin {
		if len(w) < 100 {
			continue
		}
		wt := summarize(w)
		p50, p90 = append(p50, wt.P50), append(p90, wt.P90)
	}
	t = summarize(lat)
	if len(p50) > 0 {
		t.P50, t.P90 = median(p50), median(p90)
	}
	return t, len(p50)
}

// nsPerQuery turns pass durations (ns) over a set of n queries into the
// paper's per-query time: the median pass divided by n.
func nsPerQuery(passNs []float64, n int) float64 {
	if n == 0 {
		return math.NaN()
	}
	return median(passNs) / float64(n)
}
