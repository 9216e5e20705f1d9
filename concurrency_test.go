package reach

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func genFixture(t *testing.T) *Graph {
	t.Helper()
	raw := gen.CitationDAG(400, 3, 0.5, 7)
	edges := make([][2]uint32, 0, raw.NumEdges())
	raw.Edges(func(u, v graph.Vertex) bool {
		edges = append(edges, [2]uint32{uint32(u), uint32(v)})
		return true
	})
	g, err := NewGraph(raw.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReachableOutOfRange(t *testing.T) {
	g, err := NewGraph(4, [][2]uint32{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	o, err := Build(g, MethodDL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]uint32{{4, 0}, {0, 4}, {4, 4}, {^uint32(0), 1}, {1, ^uint32(0)}} {
		if o.Reachable(q[0], q[1]) { // must not panic, must answer false
			t.Errorf("Reachable(%d, %d) = true for out-of-range vertex, want false", q[0], q[1])
		}
	}
	if !o.Reachable(0, 3) {
		t.Error("in-range query broken by bounds check")
	}
}

// batchFixture is genFixture's citation DAG with back edges added, so the
// condensation has multi-vertex SCCs, plus the raw digraph for BFS.
func batchFixture(t *testing.T) (*Graph, *graph.Graph) {
	t.Helper()
	raw := gen.CitationDAG(400, 3, 0.5, 7)
	var edges [][2]uint32
	raw.Edges(func(u, v graph.Vertex) bool {
		edges = append(edges, [2]uint32{uint32(u), uint32(v)})
		return true
	})
	// Close cycles through two-edge paths u -> w -> x with x -> u.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 12; i++ {
		e := edges[rng.Intn(len(edges))]
		if out := raw.Out(graph.Vertex(e[1])); len(out) > 0 {
			edges = append(edges, [2]uint32{uint32(out[0]), e[0]})
		}
	}
	g, err := NewGraph(raw.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(raw.NumVertices())
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return g, b.MustBuild()
}

// batchPairs interleaves out-of-range pairs, pairs inside one SCC and
// random pairs, so every chunk of a staged batch mixes pairs decided
// before the observers, by them and by the index.
func batchPairs(g *Graph, count int, seed int64) [][2]uint32 {
	n := uint32(g.NumVertices())
	var scc [][2]uint32 // distinct vertices sharing a component
	for u := uint32(0); u < n; u++ {
		for v := uint32(0); v < n; v++ {
			if u != v && g.SameComponent(u, v) {
				scc = append(scc, [2]uint32{u, v})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]uint32, count)
	for i := range pairs {
		u, v := rng.Uint32()%n, rng.Uint32()%n
		switch i % 7 {
		case 1:
			pairs[i] = [2]uint32{n + uint32(i), v}
		case 3:
			pairs[i] = [2]uint32{u, ^uint32(0)}
		case 5:
			pairs[i] = scc[rng.Intn(len(scc))]
		default:
			pairs[i] = [2]uint32{u, v}
		}
	}
	return pairs
}

func TestReachableBatch(t *testing.T) {
	g, raw := batchFixture(t)
	if g.DAGVertices() == g.NumVertices() {
		t.Fatal("fixture has no multi-vertex SCC")
	}
	n := uint32(g.NumVertices())
	pairs := batchPairs(g, 513, 11)
	vst := graph.NewVisitor(raw.NumVertices())
	want := make([]bool, len(pairs))
	for i, p := range pairs {
		want[i] = p[0] < n && p[1] < n && vst.Reachable(raw, p[0], p[1])
	}
	for _, m := range Methods() {
		for _, observers := range []bool{true, false} {
			o, err := Build(g, m, Options{NoObservers: !observers})
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			for _, size := range []int{0, 1, 63, 64, 65, 512, 513} {
				got := o.ReachableBatch(pairs[:size], nil)
				if len(got) != size {
					t.Fatalf("%s observers=%v: batch of %d returned %d results", m, observers, size, len(got))
				}
				for i, p := range pairs[:size] {
					if got[i] != want[i] {
						t.Fatalf("%s observers=%v size %d: pair %d (%d, %d) = %v, BFS says %v",
							m, observers, size, i, p[0], p[1], got[i], want[i])
					}
					if r := o.Reachable(p[0], p[1]); r != want[i] {
						t.Fatalf("%s observers=%v: Reachable(%d, %d) = %v, BFS says %v", m, observers, p[0], p[1], r, want[i])
					}
				}
			}
			// Reusing a caller-provided slice must not allocate a new one.
			buf := make([]bool, len(pairs))
			if got := o.ReachableBatch(pairs, buf); &got[0] != &buf[0] {
				t.Errorf("%s: ReachableBatch did not reuse the provided output slice", m)
			}
		}
	}
}

// TestReachableBatchZeroAlloc pins the //reach:hotpath contract of the
// staged batch kernel: with a caller-supplied out slice, a DL batch
// allocates nothing.
func TestReachableBatchZeroAlloc(t *testing.T) {
	g, _ := batchFixture(t)
	o, err := Build(g, MethodDL, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := batchPairs(g, 513, 13)
	out := make([]bool, len(pairs))
	if allocs := testing.AllocsPerRun(100, func() { o.ReachableBatch(pairs, out) }); allocs != 0 {
		t.Fatalf("DL ReachableBatch allocated %v times per call with a caller-supplied out", allocs)
	}
}

// TestOracleConcurrentHammer drives every method's oracle from many
// goroutines with mixed positive/negative queries. Run under -race it
// enforces the package's concurrency guarantee; the answers are also
// checked against a single-threaded pass.
func TestOracleConcurrentHammer(t *testing.T) {
	g := genFixture(t)
	rng := rand.New(rand.NewSource(23))
	const queries = 2000
	pairs := make([][2]uint32, queries)
	n := uint32(g.NumVertices())
	for i := range pairs {
		pairs[i] = [2]uint32{rng.Uint32() % n, rng.Uint32() % n}
	}

	for _, m := range Methods() {
		o, err := Build(g, m, Options{})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		want := o.ReachableBatch(pairs, nil)

		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each worker walks the pairs from a different offset so
				// goroutines overlap on different queries at any instant.
				for i := 0; i < queries; i++ {
					j := (i + w*queries/workers) % queries
					if o.Reachable(pairs[j][0], pairs[j][1]) != want[j] {
						select {
						case errs <- string(m):
						default:
						}
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		if m, bad := <-errs; bad {
			t.Fatalf("%s: concurrent answer disagrees with single-threaded answer", m)
		}
	}
}
