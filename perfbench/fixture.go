package main

import (
	"fmt"
	"math/rand"
	"strconv"

	reach "repro"
	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/workload"
)

// Fixture constants shared by every workload.
const (
	datasetName  = "citeseerx" // the Table 5/6 catalog substitute
	datasetN     = 25_000
	paperQueries = workload.DefaultQueries // §6.1: 100k per query set
	batchPairs   = 512
	zipfS        = 1.07
	zipfUniverse = 1 << 21 // distinct pairs: twice one replica's cache
)

// fixture is the graph every workload serves: the dataset's DAG in the
// original vertex IDs the public API speaks, and its edge list.
type fixture struct {
	g     *graph.Graph
	edges [][2]uint32
}

func loadFixture() (*fixture, error) {
	spec, ok := dataset.ByName(datasetName)
	if !ok {
		return nil, fmt.Errorf("dataset %q not in the catalog", datasetName)
	}
	g := spec.BuildAt(datasetN)
	edges := make([][2]uint32, 0, g.NumEdges())
	for u := 0; u < g.NumVertices(); u++ {
		for _, w := range g.Out(graph.Vertex(u)) {
			edges = append(edges, [2]uint32{uint32(u), w})
		}
	}
	return &fixture{g: g, edges: edges}, nil
}

// newGraph is the timed first step of every set-up.
func (f *fixture) newGraph() (*reach.Graph, error) {
	return reach.NewGraph(f.g.NumVertices(), f.edges)
}

// groundTruth answers every pair by index-free breadth-first search over
// the fixture graph: pairs are bucketed by source, and each distinct
// source is traversed once. It runs before any timed region.
func groundTruth(g *graph.Graph, pairs [][2]uint32) []bool {
	n := g.NumVertices()
	start := make([]int32, n+1)
	for _, p := range pairs {
		start[p[0]+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	order := make([]int32, len(pairs))
	next := append([]int32(nil), start[:n]...)
	for i, p := range pairs {
		order[next[p[0]]] = int32(i)
		next[p[0]]++
	}
	out := make([]bool, len(pairs))
	vst := graph.NewVisitor(n)
	all := func(graph.Vertex, int32) bool { return true }
	for u := 0; u < n; u++ {
		lo, hi := start[u], start[u+1]
		if lo == hi {
			continue
		}
		vst.BFS(g, graph.Vertex(u), graph.Forward, all)
		for _, i := range order[lo:hi] {
			out[i] = vst.Visited(pairs[i][1])
		}
	}
	return out
}

func uniformPairs(rng *rand.Rand, n, count int) [][2]uint32 {
	out := make([][2]uint32, count)
	for i := range out {
		out[i] = [2]uint32{uint32(rng.Intn(n)), uint32(rng.Intn(n))}
	}
	return out
}

// zipfPairs draws count pairs from a Zipf(s) distribution over a fixed
// universe of distinct uniform pairs, so hits come from skew and not
// from a universe small enough to fit in the cache.
func zipfPairs(rng *rand.Rand, universe [][2]uint32, count int) [][2]uint32 {
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(universe)-1))
	out := make([][2]uint32, count)
	for i := range out {
		out[i] = universe[z.Uint64()]
	}
	return out
}

// paperSets are the §6.1 query sets: equal (~50% positive) and random.
type paperSets struct {
	equal, random [][2]uint32
}

func genPaperSets(g *graph.Graph, seed int64) (paperSets, error) {
	var ps paperSets
	for _, k := range []struct {
		kind workload.Kind
		dst  *[][2]uint32
	}{{workload.Equal, &ps.equal}, {workload.Random, &ps.random}} {
		w, err := workload.Generate(g, k.kind, paperQueries, seed)
		if err != nil {
			return ps, err
		}
		pairs := make([][2]uint32, w.Len())
		for i := range pairs {
			pairs[i] = [2]uint32{w.U[i], w.V[i]}
		}
		*k.dst = pairs
	}
	return ps, nil
}

// batchPool holds pre-encoded /v1/batch bodies and their expected
// answers, so the timed loop only sends bytes and compares.
type batchPool struct {
	bodies [][]byte
	want   [][]bool
}

func newBatchPool(pairs [][2]uint32, truth []bool) *batchPool {
	bp := &batchPool{}
	for lo := 0; lo+batchPairs <= len(pairs); lo += batchPairs {
		bp.bodies = append(bp.bodies, encodeBatch(pairs[lo:lo+batchPairs]))
		bp.want = append(bp.want, truth[lo:lo+batchPairs])
	}
	return bp
}

// encodeBatch renders a server.BatchRequest body.
func encodeBatch(pairs [][2]uint32) []byte {
	b := make([]byte, 0, 10+14*len(pairs))
	b = append(b, `{"pairs":[`...)
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendUint(b, uint64(p[0]), 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(p[1]), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

// singlePool holds pre-built /v1/reachable query strings.
type singlePool struct {
	query []string
	want  []bool
}

func newSinglePool(pairs [][2]uint32, truth []bool) *singlePool {
	sp := &singlePool{query: make([]string, len(pairs)), want: truth}
	for i, p := range pairs {
		sp.query[i] = "u=" + strconv.FormatUint(uint64(p[0]), 10) + "&v=" + strconv.FormatUint(uint64(p[1]), 10)
	}
	return sp
}
