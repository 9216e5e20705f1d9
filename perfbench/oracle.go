package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	reach "repro"
	"repro/internal/hoplabel"
	"repro/internal/index"
	"repro/internal/observe"
)

// querySet is one of the paper's query sets with its BFS answers.
type querySet struct {
	name  string
	pairs [][2]uint32
	want  []bool
}

// passes is what repeated Oracle.ReachableBatch passes measured. Pass
// and call times are scaled by the calibration kernel (calib.go).
type passes struct {
	passNs   map[string][]float64 // set name → scaled ns per whole pass
	rawNs    map[string][]float64 // set name → unscaled ns per whole pass
	setLen   map[string]int
	batchLat []float64 // scaled ns per full 512-pair call
	queries  int64
	busy     time.Duration // summed unscaled call time
	calib    []float64     // the kernel's run times, ns
	out      outcome
}

// pairsPerSec is the median, over rounds of one pass per set, of the
// queries answered per second of call time.
func (p *passes) pairsPerSec() float64 {
	var rates []float64
	for i := 0; ; i++ {
		var n, ns float64
		for name, runs := range p.passNs {
			if i >= len(runs) {
				return median(rates)
			}
			n += float64(p.setLen[name])
			ns += runs[i]
		}
		rates = append(rates, n/ns*1e9)
	}
}

// runPasses alternates passes over sets until d of wall time has elapsed
// (and at least one pass over each). Every pass answers its set in
// 512-pair Oracle.ReachableBatch calls, each timed in thread CPU time
// and scaled by the calibration runs before and after its pass; each
// call is one operation, checked against the BFS answers outside the
// timed call. With rec on, each call is also a span.
func runPasses(o *reach.Oracle, sets []querySet, d time.Duration, rec *recorder) *passes {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	p := &passes{passNs: map[string][]float64{}, rawNs: map[string][]float64{}, setLen: map[string]int{}}
	out := make([]bool, batchPairs)
	cal := newCalibrator()
	deadline := time.Now().Add(d)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, qs := range sets {
			trace := qs.name + strconv.Itoa(pass)
			var sum time.Duration
			first := len(p.batchLat)
			for lo := 0; lo < len(qs.pairs); lo += batchPairs {
				hi := min(lo+batchPairs, len(qs.pairs))
				w0, c0 := time.Now(), threadCPU()
				res := o.ReachableBatch(qs.pairs[lo:hi], out)
				c1, w1 := threadCPU(), time.Now()
				rec.add("oracle.batch", trace, "", w0, w1)
				dt := c1 - c0
				sum += dt
				if hi-lo == batchPairs {
					p.batchLat = append(p.batchLat, float64(dt))
				}
				p.out.add(outcome{1, b2i(!equalBools(res, qs.want[lo:hi]))})
			}
			f := cal.scale()
			for i := first; i < len(p.batchLat); i++ {
				p.batchLat[i] *= f
			}
			p.passNs[qs.name] = append(p.passNs[qs.name], float64(sum)*f)
			p.rawNs[qs.name] = append(p.rawNs[qs.name], float64(sum))
			p.setLen[qs.name] = len(qs.pairs)
			p.queries += int64(len(qs.pairs))
			p.busy += sum
		}
	}
	p.calib = cal.runs
	return p
}

func equalBools(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// singles is what one-at-a-time Oracle.Reachable calls measured, in
// thread CPU time scaled by the calibration kernel (calib.go).
type singles struct {
	lat []float64       // ns per call, averaged over a group of singleGroup calls
	end []time.Duration // summed call time at each group's end
	out outcome
}

// perSec is calls per scaled CPU second, the median over windows of
// scaled call time.
func (s *singles) perSec() float64 {
	if len(s.end) == 0 {
		return 0
	}
	return windowRate(s.end, singleGroup, s.end[len(s.end)-1], 50*time.Millisecond)
}

// singleGroup consecutive calls share one clock reading: a call takes a
// few hundred nanoseconds, less than reading the thread CPU clock costs.
// The calibration kernel runs after every singleSegment groups (≈10 ms
// of calls) and scales the groups between its runs.
const (
	singleGroup   = 64
	singleSegment = 1024
)

// runSingles calls Oracle.Reachable on the sets' pairs, interleaved, one
// call at a time, until d of wall time has elapsed.
func runSingles(o *reach.Oracle, sets []querySet, d time.Duration) *singles {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	s := &singles{}
	var got [singleGroup]bool
	cal := newCalibrator()
	var busy time.Duration // scaled call time so far
	seg := make([]float64, 0, singleSegment)
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); {
		seg = seg[:0]
		for g := 0; g < singleSegment; g, i = g+1, i+singleGroup {
			c0 := threadCPU()
			for j := 0; j < singleGroup; j++ {
				qs, k := singleAt(sets, i+j)
				got[j] = o.Reachable(qs.pairs[k][0], qs.pairs[k][1])
			}
			seg = append(seg, float64(threadCPU()-c0))
			for j := 0; j < singleGroup; j++ {
				qs, k := singleAt(sets, i+j)
				s.out.add(outcome{1, b2i(got[j] != qs.want[k])})
			}
		}
		f := cal.scale()
		for _, ns := range seg {
			busy += time.Duration(ns * f)
			s.lat = append(s.lat, ns*f/singleGroup)
			s.end = append(s.end, busy)
		}
	}
	return s
}

// singleAt is the i-th single query: the sets' pairs, interleaved.
func singleAt(sets []querySet, i int) (querySet, int) {
	qs := sets[i%len(sets)]
	return qs, (i / len(sets)) % len(qs.pairs)
}

// oracleLayers measures the observer and label layers from outside, on
// the paper's sets: how much the observers decide, what a Stack.Query
// and a Labeling.Reachable on observer-Unknown pairs cost, and how many
// label entries such a probe touches. lab must be DL's labeling of o's
// condensation. It returns the time per query the two layers account
// for.
func oracleLayers(o *reach.Oracle, lab *hoplabel.Labeling, sets []querySet, m metrics) (float64, error) {
	st := o.Observers()
	if st == nil {
		return 0, fmt.Errorf("oracle has no observer stack")
	}
	g := o.Graph()
	hits := func() int64 {
		var n int64
		for _, k := range observe.Kinds() {
			n += st.Hits(k)
		}
		return n
	}
	var all, unknown [][2]uint32
	var entries int64
	out := make([]bool, paperQueries)
	for _, qs := range sets {
		before := hits()
		o.ReachableBatch(qs.pairs, out)
		m.set("observe.decided_frac."+qs.name, float64(hits()-before)/float64(len(qs.pairs)))
		for _, p := range qs.pairs {
			cu, cv := g.MapVertex(p[0]), g.MapVertex(p[1])
			if cu == cv {
				continue // same component: answered before the observers
			}
			all = append(all, [2]uint32{cu, cv})
			if st.Query(cu, cv) == observe.Unknown {
				unknown = append(unknown, [2]uint32{cu, cv})
				entries += int64(len(lab.Out(cu)) + len(lab.In(cv)))
			}
		}
	}
	queryNs := timePerItem(len(all), func() {
		for _, p := range all {
			st.Query(p[0], p[1])
		}
	})
	probeNs := timePerItem(len(unknown), func() {
		for _, p := range unknown {
			lab.Reachable(p[0], p[1])
		}
	})
	m.set("observe.query_ns", queryNs)
	m.set("hoplabel.probe_ns", probeNs)
	m.set("hoplabel.entries_per_probe", float64(entries)/float64(max(len(unknown), 1)))
	ls, err := o.LabelStats()
	if err != nil {
		return 0, err
	}
	m.set("hoplabel.avg_lout", ls.AvgOut)
	m.set("hoplabel.avg_lin", ls.AvgIn)
	return (queryNs*float64(len(all)) + probeNs*float64(len(unknown))) / float64(len(all)), nil
}

// timePerItem runs f three times and returns the median run's thread CPU
// time per item in ns, the clock runPasses uses.
func timePerItem(items int, f func()) float64 {
	if items == 0 {
		return 0
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var runs []float64
	for i := 0; i < 3; i++ {
		t0 := threadCPU()
		f()
		runs = append(runs, float64(threadCPU()-t0))
	}
	return median(runs) / float64(items)
}

// buildCore builds the DL index alone through the method registry — what
// reach.Build does with NoObservers — and returns its build time and
// labeling.
func buildCore(g *reach.Graph) (time.Duration, *hoplabel.Labeling, error) {
	d, ok := index.Get(string(reach.MethodDL))
	if !ok {
		return 0, nil, fmt.Errorf("method DL not registered")
	}
	t0 := time.Now()
	idx, err := d.Build(g.DAG(), index.BuildOptions{})
	if err != nil {
		return 0, nil, err
	}
	took := time.Since(t0)
	l, ok := idx.(interface{ Labeling() *hoplabel.Labeling })
	if !ok {
		return 0, nil, fmt.Errorf("DL index exposes no labeling")
	}
	return took, l.Labeling(), nil
}
