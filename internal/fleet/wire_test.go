package fleet

import (
	"context"
	"math"
	"net"
	"net/http/httptest"
	"testing"
	"time"

	reach "repro"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mux"
	"repro/internal/server"
)

// realOracle builds a small graph + DL oracle for wire tests.
func realOracle(t *testing.T) (*reach.Graph, *reach.Oracle) {
	t.Helper()
	raw := gen.CitationDAG(400, 3, 0.5, 23)
	edges := make([][2]uint32, 0, raw.NumEdges())
	raw.Edges(func(u, v graph.Vertex) bool {
		edges = append(edges, [2]uint32{uint32(u), uint32(v)})
		return true
	})
	g, err := reach.NewGraph(raw.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := reach.Build(g, reach.MethodDL, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g, oracle
}

// startReplica serves one real replica over g/oracle and returns its base URL.
func startReplica(t *testing.T, g *reach.Graph, oracle *reach.Oracle, cfg server.Config) string {
	t.Helper()
	s := server.New(g, oracle, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts.URL
}

// replicaStatsByBase indexes a router's stats rows by replica base URL.
func replicaStatsByBase(t *testing.T, rt *Router) map[string]ReplicaStats {
	t.Helper()
	st := rt.Stats(context.Background())
	out := make(map[string]ReplicaStats, len(st.Replicas))
	for _, r := range st.Replicas {
		out[r.Base] = r
	}
	return out
}

// TestBatchPathSelection pins how Client.Batch picks a path per batch
// from what it can observe: the stream transport when the replica
// advertises a mux listener and every ID fits the frame's u32, JSON
// otherwise. Each step asserts the answers and which counter moved.
func TestBatchPathSelection(t *testing.T) {
	g, oracle := realOracle(t)
	// Original-ID mode with one ID off the uint32 end of the space:
	// vertex 1 answers to wide, every other vertex to its dense ID.
	wide := uint64(math.MaxUint32) + 7
	orig := make([]int64, g.NumVertices())
	for i := range orig {
		orig[i] = int64(i)
	}
	orig[1] = int64(wide)
	cfg := server.Config{OrigIDs: orig}
	dense := func(id uint64) uint32 {
		if id == wide {
			return 1
		}
		return uint32(id)
	}
	// A listener bound and immediately closed: a dialable-looking
	// advertisement with nothing behind it.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	narrow := [][2]uint64{{0, 2}, {2, 0}, {3, 4}}
	wideBatch := [][2]uint64{{wide, 2}, {0, 2}}
	type step struct {
		pairs [][2]uint64
		mux   bool // true: one mux frame; false: one JSON batch
	}
	for _, tc := range []struct {
		name      string
		replica   func() string
		transport string
		steps     []step
	}{
		{"mux advertised", func() string { return startMuxReplica(t, g, oracle, cfg) }, "mux",
			[]step{{narrow, true}}},
		// The wide batch goes as JSON for that batch only: the pool is
		// kept and the next narrow batch rides mux again.
		{"id above u32", func() string { return startMuxReplica(t, g, oracle, cfg) }, "mux",
			[]step{{wideBatch, false}, {narrow, true}}},
		{"no advertisement", func() string { return startReplica(t, g, oracle, cfg) }, "http",
			[]step{{narrow, false}}},
		// Mux trouble is a transport detail, not a health signal: the
		// batch goes as JSON and the replica stays enrolled.
		{"dead listener", func() string {
			dc := cfg
			dc.MuxAddr = deadAddr
			return startReplica(t, g, oracle, dc)
		}, "mux", []step{{narrow, false}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.replica()
			rt := newTestRouter(t, silentCfg(base))
			if got := replicaStatsByBase(t, rt)[base].Transport; got != tc.transport {
				t.Fatalf("transport %q, want %q", got, tc.transport)
			}
			for i, st := range tc.steps {
				muxBefore, jsonBefore := rt.met.muxTraffic.FramesTx.Load(), rt.met.wire.framesJSON.Load()
				res, err := rt.Batch(context.Background(), st.pairs)
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				for j, p := range st.pairs {
					if want := oracle.Reachable(dense(p[0]), dense(p[1])); res[j] != want {
						t.Fatalf("step %d pair %d %v: got %v, want %v", i, j, p, res[j], want)
					}
				}
				muxSent := rt.met.muxTraffic.FramesTx.Load() - muxBefore
				jsonSent := rt.met.wire.framesJSON.Load() - jsonBefore
				wantMux, wantJSON := int64(0), int64(1)
				if st.mux {
					wantMux, wantJSON = 1, 0
				}
				if muxSent != wantMux || jsonSent != wantJSON {
					t.Fatalf("step %d sent %d mux frames and %d JSON batches, want %d and %d",
						i, muxSent, jsonSent, wantMux, wantJSON)
				}
			}
			if got := len(rt.healthy(nil)); got != 1 {
				t.Fatalf("%d healthy replicas, want 1", got)
			}
		})
	}
}

// TestClientBinaryErrorFrame: a replica's in-band error frame surfaces
// as the same *StatusError the JSON path produces, and — being the
// replica's verdict, not a transport failure — is not retried as JSON.
func TestClientBinaryErrorFrame(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ms := mux.NewServer(mux.ServerConfig{
		Batch: func(context.Context, string, [][2]uint32, []bool) error {
			return &mux.Fail{Status: 413, Msg: "batch of 10 pairs exceeds limit 4"}
		},
		Logf: func(string, ...any) {},
	})
	go ms.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ms.Shutdown(ctx)
	})
	// No HTTP side: a JSON retry would fail to connect, not answer 413.
	c := NewClient("http://127.0.0.1:1", time.Second)
	c.UseMux(ln.Addr().String(), "")
	t.Cleanup(c.CloseIdleConnections)

	_, err = c.Batch(context.Background(), make([][2]uint64, 10))
	se, ok := err.(*StatusError)
	if !ok {
		t.Fatalf("refused mux batch returned %v, want *StatusError", err)
	}
	if se.Status != 413 || se.Body != "batch of 10 pairs exceeds limit 4" {
		t.Fatalf("status error %+v, want 413 with the frame's in-band message", se)
	}
	if n := c.counters.framesJSON.Load(); n != 0 {
		t.Fatalf("a replica verdict was retried as %d JSON batches", n)
	}
}
