// Package hoplabel holds the shared reachability-oracle representation: per
// vertex, two sorted hop sets Lout(v) and Lin(v) such that u reaches v iff
// Lout(u) ∩ Lin(v) ≠ ∅. Every labeling algorithm in this repository (HL,
// DL, TF, 2HOP) produces one of these.
//
// The paper observes (§1) that implementing the label sets as sorted
// vectors rather than hash sets eliminates the reachability oracle's
// historical query-performance gap; labels here are flat sorted []uint32
// CSR arrays and the query is a merge intersection with early exit.
package hoplabel

import "slices"

// Labeling is an immutable, complete 2-hop reachability labeling.
type Labeling struct {
	n      int
	outOff []uint32
	out    []uint32
	inOff  []uint32
	in     []uint32
}

// NumVertices returns the number of labeled vertices.
func (l *Labeling) NumVertices() int { return l.n }

// Out returns Lout(v), sorted ascending. Shared storage; do not modify.
func (l *Labeling) Out(v uint32) []uint32 { return l.out[l.outOff[v]:l.outOff[v+1]] }

// In returns Lin(v), sorted ascending. Shared storage; do not modify.
func (l *Labeling) In(v uint32) []uint32 { return l.in[l.inOff[v]:l.inOff[v+1]] }

// Reachable answers u -> v via sorted-merge intersection of Lout(u) and
// Lin(v); O(|Lout(u)| + |Lin(v)|).
func (l *Labeling) Reachable(u, v uint32) bool {
	if u == v {
		return true
	}
	return IntersectsSorted(l.Out(u), l.In(v))
}

// Probe is one query's pair of labels, Lout(u) and Lin(v), resolved ahead
// of the merge that intersects them, with each label's first entry
// already loaded. A batch kernel resolves the probes of many queries
// before merging any, so their cache misses overlap instead of each one
// waiting behind the previous query's merge.
type Probe struct {
	out, in []uint32
	x, y    uint32 // out[0] and in[0] when both labels are non-empty
}

// Resolve looks up Lout(u) and Lin(v) and loads their first entries.
func (l *Labeling) Resolve(u, v uint32) Probe {
	p := Probe{out: l.Out(u), in: l.In(v)}
	if len(p.out) > 0 && len(p.in) > 0 {
		p.x, p.y = p.out[0], p.in[0]
	}
	return p
}

// Intersects reports whether the probe's two labels share a hop.
//
//reach:hotpath
func (p *Probe) Intersects() bool {
	return len(p.out) > 0 && len(p.in) > 0 && intersectsFrom(p.out, p.in, p.x, p.y)
}

// IntersectsSorted reports whether two ascending slices share an element.
//
//reach:hotpath
func IntersectsSorted(a, b []uint32) bool {
	return len(a) > 0 && len(b) > 0 && intersectsFrom(a, b, a[0], b[0])
}

// intersectsFrom is the merge behind every label intersection, started
// from the already-loaded first keys x = a[0] and y = b[0] of two
// non-empty slices. The step is branch-free: s is the sign bit of x−y,
// so the smaller side advances without a data-dependent branch to
// mispredict. The loop ends at the first common key or when either side
// runs out, so with topologically keyed labels — Lin(v) ends at v's own
// position — it stops once Lout(u) passes v.
//
//reach:hotpath
func intersectsFrom(a, b []uint32, x, y uint32) bool {
	i, j := 0, 0
	for x != y {
		s := int(uint64(int64(x)-int64(y)) >> 63) // 1 when x < y
		i += s
		j += 1 - s
		if i >= len(a) || j >= len(b) {
			return false
		}
		x, y = a[i], b[j]
	}
	return true
}

// SizeInts returns the total label size Σ(|Lout(v)| + |Lin(v)|) in 32-bit
// integers — the metric minimized by 2-hop labeling and reported in the
// paper's Figures 3 and 4.
func (l *Labeling) SizeInts() int64 { return int64(len(l.out) + len(l.in)) }

// Stats summarizes label-size distribution.
type Stats struct {
	TotalOut, TotalIn int64
	MaxOut, MaxIn     int
	AvgOut, AvgIn     float64
}

// ComputeStats gathers label statistics.
func (l *Labeling) ComputeStats() Stats {
	var s Stats
	s.TotalOut = int64(len(l.out))
	s.TotalIn = int64(len(l.in))
	for v := 0; v < l.n; v++ {
		if o := len(l.Out(uint32(v))); o > s.MaxOut {
			s.MaxOut = o
		}
		if i := len(l.In(uint32(v))); i > s.MaxIn {
			s.MaxIn = i
		}
	}
	if l.n > 0 {
		s.AvgOut = float64(s.TotalOut) / float64(l.n)
		s.AvgIn = float64(s.TotalIn) / float64(l.n)
	}
	return s
}

// Builder accumulates per-vertex hop sets and freezes them into a Labeling.
type Builder struct {
	out [][]uint32
	in  [][]uint32
}

// NewBuilder returns a Builder for n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{out: make([][]uint32, n), in: make([][]uint32, n)}
}

// NumVertices returns the builder's vertex count.
func (b *Builder) NumVertices() int { return len(b.out) }

// AddOut appends hop to Lout(v). Duplicates are removed at Freeze.
func (b *Builder) AddOut(v, hop uint32) { b.out[v] = append(b.out[v], hop) }

// AddIn appends hop to Lin(v). Duplicates are removed at Freeze.
func (b *Builder) AddIn(v, hop uint32) { b.in[v] = append(b.in[v], hop) }

// SetOut replaces Lout(v) wholesale (used by HL's label unioning).
func (b *Builder) SetOut(v uint32, hops []uint32) { b.out[v] = hops }

// SetIn replaces Lin(v) wholesale.
func (b *Builder) SetIn(v uint32, hops []uint32) { b.in[v] = hops }

// Out returns the current (unsorted, possibly duplicated) Lout(v).
func (b *Builder) Out(v uint32) []uint32 { return b.out[v] }

// In returns the current (unsorted, possibly duplicated) Lin(v).
func (b *Builder) In(v uint32) []uint32 { return b.in[v] }

// Freeze sorts and deduplicates every label and produces the flat Labeling.
// The builder must not be used afterwards.
func (b *Builder) Freeze() *Labeling {
	n := len(b.out)
	l := &Labeling{n: n, outOff: make([]uint32, n+1), inOff: make([]uint32, n+1)}
	var totalOut, totalIn int
	for v := 0; v < n; v++ {
		b.out[v] = sortDedup(b.out[v])
		b.in[v] = sortDedup(b.in[v])
		totalOut += len(b.out[v])
		totalIn += len(b.in[v])
	}
	l.out = make([]uint32, 0, totalOut)
	l.in = make([]uint32, 0, totalIn)
	for v := 0; v < n; v++ {
		l.out = append(l.out, b.out[v]...)
		l.outOff[v+1] = uint32(len(l.out))
		l.in = append(l.in, b.in[v]...)
		l.inOff[v+1] = uint32(len(l.in))
		b.out[v], b.in[v] = nil, nil // release during freeze to cap peak memory
	}
	return l
}

func sortDedup(s []uint32) []uint32 {
	if len(s) < 2 {
		return s
	}
	slices.Sort(s)
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}
