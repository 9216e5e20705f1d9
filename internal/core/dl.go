package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/hoplabel"
	"repro/internal/order"
)

// DLOptions configures Distribution-Labeling.
type DLOptions struct {
	// Order overrides the hop distribution order (highest importance
	// first). Nil selects the paper's degree-product rank.
	Order []graph.Vertex
	// Strategy selects a built-in order when Order is nil. Empty means
	// order.DegreeProduct.
	Strategy order.Strategy
	// Seed feeds the random order strategy (ablation only).
	Seed int64
}

// DL is the Distribution-Labeling reachability oracle.
//
// Label entries are topological positions (graph.TopoOrder, the order the
// observers' interval check uses). Every hop in Lout(u) lies at or after u
// in that order, starting with u itself, and every hop in Lin(v) at or
// before v, ending with v itself; so the merge for a query u -> v stops
// once Lout(u) passes v's position instead of running to the larger of
// the two labels' own rank entries. Snapshots written before this keying
// hold rank positions; any injective keying answers the same, so they load
// unchanged and only lose the early stop.
type DL struct {
	labeling *hoplabel.Labeling
	// pos maps a vertex to its rank position in the distribution order.
	pos []int32
}

// BuildDL constructs the Distribution-Labeling oracle for DAG g
// (Algorithm 2 of the paper).
func BuildDL(g *graph.Graph, opts DLOptions) (*DL, error) {
	if !graph.IsDAG(g) {
		return nil, fmt.Errorf("core: DL requires a DAG; condense the input first")
	}
	ord := opts.Order
	if ord == nil {
		strategy := opts.Strategy
		if strategy == "" {
			strategy = order.DegreeProduct
		}
		ord = order.ByStrategy(g, strategy, opts.Seed)
	}
	if len(ord) != g.NumVertices() {
		return nil, fmt.Errorf("core: order has %d entries for %d vertices", len(ord), g.NumVertices())
	}
	topo := order.PositionOf(order.ByStrategy(g, order.Topo, 0))
	return &DL{labeling: distribute(g, ord, topo).Freeze(), pos: order.PositionOf(ord)}, nil
}

// distribute runs the hop-distribution loop over ord and returns the
// label builder. The hop of vertex v is recorded as key[v], which must be
// distinct values below the vertex count: BuildDL passes topological
// positions, HL's core labeling rank positions.
func distribute(g *graph.Graph, ord []graph.Vertex, key []int32) *hoplabel.Builder {
	n := g.NumVertices()
	builder := hoplabel.NewBuilder(n)
	vst := graph.NewVisitor(n)
	// Each BFS prunes against one fixed label, Lin(vi) or Lout(vi). Its
	// hops are marked with a fresh stamp, so testing whether another
	// label meets it is one scan with a table lookup per entry rather
	// than a merge of two sorted lists.
	mark := make([]uint32, n)
	stamp := uint32(0)
	markHops := func(lab []uint32) {
		stamp++
		for _, h := range lab {
			mark[h] = stamp
		}
	}
	meetsMarked := func(lab []uint32) bool {
		for _, h := range lab {
			if mark[h] == stamp {
				return true
			}
		}
		return false
	}

	for _, vi := range ord {
		hop := uint32(key[vi])
		// Reverse BFS: add hop to Lout(u) for u ∈ TC⁻¹(vi) \ TC⁻¹(X)
		// (Theorem 2); prune u — and its ancestors — once the existing
		// labels already connect u to vi.
		markHops(builder.In(uint32(vi)))
		vst.BFS(g, vi, graph.Backward, func(u graph.Vertex, _ int32) bool {
			if u != vi && meetsMarked(builder.Out(uint32(u))) {
				return false
			}
			builder.AddOut(uint32(u), hop)
			return true
		})
		// Forward BFS: add hop to Lin(w) for w ∈ TC(vi) \ TC(Y).
		markHops(builder.Out(uint32(vi)))
		vst.BFS(g, vi, graph.Forward, func(w graph.Vertex, _ int32) bool {
			if w != vi && meetsMarked(builder.In(uint32(w))) {
				return false
			}
			builder.AddIn(uint32(w), hop)
			return true
		})
	}
	return builder
}

// Name implements the Index interface.
func (d *DL) Name() string { return "DL" }

// Reachable answers u -> v by label intersection.
func (d *DL) Reachable(u, v uint32) bool { return d.labeling.Reachable(u, v) }

// SizeInts returns Σ(|Lout|+|Lin|) in 32-bit integers.
func (d *DL) SizeInts() int64 { return d.labeling.SizeInts() }

// Labeling exposes the underlying labeling (hops are topological
// positions; rank positions in older snapshots).
func (d *DL) Labeling() *hoplabel.Labeling { return d.labeling }

// RankOf returns the rank position of vertex v in the distribution order.
func (d *DL) RankOf(v uint32) int32 { return d.pos[v] }
