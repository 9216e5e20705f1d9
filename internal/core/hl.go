package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/backbone"
	"repro/internal/graph"
	"repro/internal/hoplabel"
	"repro/internal/order"
)

// HLOptions configures Hierarchical-Labeling.
type HLOptions struct {
	// Epsilon is the backbone locality threshold; the paper uses 2.
	// Epsilon = 1 yields the TF-label special case (§2.4).
	Epsilon int
	// CoreLimit stops decomposition once the core has at most this many
	// vertices (paper §4.2 suggests ~10K; default 1024 suits our scale).
	CoreLimit int
	// MaxLevels bounds the hierarchy height (default 10, per §4.2).
	MaxLevels int
	// HubCap forwards to backbone extraction.
	HubCap int
}

func (o HLOptions) withDefaults() HLOptions {
	if o.Epsilon <= 0 {
		o.Epsilon = 2
	}
	if o.CoreLimit <= 0 {
		o.CoreLimit = 1024
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 10
	}
	return o
}

// HL is the Hierarchical-Labeling reachability oracle. Hops are original
// vertex IDs.
type HL struct {
	labeling *hoplabel.Labeling
	levels   int
	coreSize int
	eps      int
}

// BuildHL constructs the Hierarchical-Labeling oracle for DAG g
// (Algorithm 1 of the paper): decompose, label the core, then broadcast
// labels from level h-1 down to level 0 via Formulas 4 and 5.
func BuildHL(g *graph.Graph, opts HLOptions) (*HL, error) {
	if !graph.IsDAG(g) {
		return nil, fmt.Errorf("core: HL requires a DAG; condense the input first")
	}
	opts = opts.withDefaults()
	hier := backbone.Decompose(g, backbone.DecomposeConfig{
		Backbone:  backbone.Config{Epsilon: opts.Epsilon, HubCap: opts.HubCap},
		CoreLimit: opts.CoreLimit,
		MaxLevels: opts.MaxLevels,
	})

	n := g.NumVertices()
	builder := hoplabel.NewBuilder(n)

	// Label the core graph. The paper permits any complete labeling here
	// (Formula 3 or an existing 2-hop algorithm); we use DL, which is
	// complete by Theorem 3 and keeps the build self-contained. Core label
	// entries are remapped from core-rank positions to original vertex IDs.
	coreLv := hier.Core()
	if coreLv.G.NumVertices() > 0 {
		coreOrder := order.ByDegreeProduct(coreLv.G)
		coreBuilder := distribute(coreLv.G, coreOrder, order.PositionOf(coreOrder))
		rankToOrig := make([]uint32, len(coreOrder))
		for rank, local := range coreOrder {
			rankToOrig[rank] = uint32(coreLv.ToOrig[local])
		}
		for local := 0; local < coreLv.G.NumVertices(); local++ {
			orig := uint32(coreLv.ToOrig[local])
			builder.SetOut(orig, remapSorted(coreBuilder.Out(uint32(local)), rankToOrig))
			builder.SetIn(orig, remapSorted(coreBuilder.In(uint32(local)), rankToOrig))
		}
	}

	// Level-wise labeling from h-1 down to 0 (Algorithm 1 lines 4-10).
	halfEps := int32((opts.Epsilon + 1) / 2) // ⌈ε/2⌉
	vst := graph.NewVisitor(n)
	for i := len(hier.Levels) - 2; i >= 0; i-- {
		lv := hier.Levels[i]
		bout, bin := backbone.Sets(lv.G, lv.InNext, opts.Epsilon)
		for local := 0; local < lv.G.NumVertices(); local++ {
			if lv.InNext[local] {
				continue // labeled at a higher level
			}
			orig := uint32(lv.ToOrig[local])

			// Formula 4: Lout(v) = N^⌈ε/2⌉out(v|Gi) ∪ ⋃ Lout(Bεout).
			// Backbone labels are already sorted, so union by k-way merge
			// instead of concat-and-sort — this is HL's dominant cost
			// (§4.2: "the last component typically dominates").
			var hood []uint32
			vst.BoundedBFS(lv.G, graph.Vertex(local), graph.Forward, halfEps,
				func(w graph.Vertex, _ int32) {
					hood = append(hood, uint32(lv.ToOrig[w]))
				})
			lists := make([][]uint32, 0, len(bout[local])+1)
			lists = append(lists, sortDedup(hood))
			for _, u := range bout[local] {
				lists = append(lists, builder.Out(uint32(lv.ToOrig[u])))
			}
			builder.SetOut(orig, mergeSortedLists(lists))

			// Formula 5: Lin(v) = N^⌈ε/2⌉in(v|Gi) ∪ ⋃ Lin(Bεin).
			hood = nil
			vst.BoundedBFS(lv.G, graph.Vertex(local), graph.Backward, halfEps,
				func(w graph.Vertex, _ int32) {
					hood = append(hood, uint32(lv.ToOrig[w]))
				})
			lists = lists[:0]
			lists = append(lists, sortDedup(hood))
			for _, u := range bin[local] {
				lists = append(lists, builder.In(uint32(lv.ToOrig[u])))
			}
			builder.SetIn(orig, mergeSortedLists(lists))
		}
	}

	return &HL{
		labeling: builder.Freeze(),
		levels:   len(hier.Levels),
		coreSize: coreLv.G.NumVertices(),
		eps:      opts.Epsilon,
	}, nil
}

// remapSorted maps rank-position label entries to original vertex IDs and
// re-sorts (the mapping is not monotone).
func remapSorted(entries []uint32, rankToOrig []uint32) []uint32 {
	out := make([]uint32, len(entries))
	for i, e := range entries {
		out[i] = rankToOrig[e]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortDedup sorts ascending and removes duplicates in place. Labels are
// deduplicated eagerly because lower levels union them again (Formulas 4
// and 5); letting duplicates accumulate would compound multiplicatively.
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

// mergeSortedLists unions ascending deduplicated lists into one ascending
// deduplicated list by pairwise merging (shortest-first would be marginal;
// sequential suffices because list counts are small — |Bε| + 1).
func mergeSortedLists(lists [][]uint32) []uint32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		out := make([]uint32, len(lists[0]))
		copy(out, lists[0])
		return out
	}
	acc := mergeTwo(lists[0], lists[1])
	for _, l := range lists[2:] {
		acc = mergeTwo(acc, l)
	}
	return acc
}

// mergeTwo merges two ascending deduplicated lists into a fresh slice.
func mergeTwo(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Name implements the Index interface.
func (h *HL) Name() string { return "HL" }

// Reachable answers u -> v by label intersection.
func (h *HL) Reachable(u, v uint32) bool { return h.labeling.Reachable(u, v) }

// SizeInts returns Σ(|Lout|+|Lin|) in 32-bit integers.
func (h *HL) SizeInts() int64 { return h.labeling.SizeInts() }

// Labeling exposes the underlying labeling (hops are original vertex IDs).
func (h *HL) Labeling() *hoplabel.Labeling { return h.labeling }

// Levels returns the hierarchy height used (h+1 graphs including G0).
func (h *HL) Levels() int { return h.levels }

// CoreSize returns the vertex count of the core graph Gh.
func (h *HL) CoreSize() int { return h.coreSize }

// Epsilon returns the locality threshold the hierarchy was built with.
func (h *HL) Epsilon() int { return h.eps }
