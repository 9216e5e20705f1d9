package fleet

import (
	"context"
	"math/rand"
	"net"
	"net/http/httptest"
	"testing"

	reach "repro"
	"repro/internal/server"
)

// startMuxReplica is startReplica plus a stream-transport listener: the
// kernel-assigned mux address goes into cfg before server.New so healthz
// advertises it, mirroring reachd -mux-addr.
func startMuxReplica(t *testing.T, g *reach.Graph, oracle *reach.Oracle, cfg server.Config) string {
	t.Helper()
	muxLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.MuxAddr = muxLn.Addr().String()
	s := server.New(g, oracle, cfg)
	ms := s.NewMuxServer(func(string, ...any) {})
	go ms.Serve(muxLn)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // force-close; clients are gone by cleanup time
		ms.Shutdown(ctx)
		s.Close()
	})
	return ts.URL
}

// TestMuxNegotiation: a mux-advertising replica and a JSON-only one
// behind the same router. The router must open the stream transport to
// the first (and report it in /v1/stats), send JSON to the second, and
// merge correct answers out of the mixed scatter with batch traffic
// actually flowing over both paths.
func TestMuxNegotiation(t *testing.T) {
	g, oracle := realOracle(t)
	muxBase := startMuxReplica(t, g, oracle, server.Config{})
	httpBase := startReplica(t, g, oracle, server.Config{})

	cfg := silentCfg(muxBase, httpBase)
	cfg.MinSubBatch = 16
	rt := newTestRouter(t, cfg)

	byBase := replicaStatsByBase(t, rt)
	if got := byBase[muxBase].Transport; got != "mux" {
		t.Fatalf("mux-advertising replica negotiated transport %q, want \"mux\"", got)
	}
	if got := byBase[httpBase].Transport; got != "http" {
		t.Fatalf("JSON-only replica negotiated transport %q, want \"http\"", got)
	}

	rng := rand.New(rand.NewSource(11))
	n := g.NumVertices()
	for round := 0; round < 8; round++ {
		pairs := make([][2]uint64, 200)
		for i := range pairs {
			pairs[i] = [2]uint64{uint64(rng.Intn(n)), uint64(rng.Intn(n))}
		}
		res, err := rt.Batch(context.Background(), pairs)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pairs {
			if res[i] != oracle.Reachable(uint32(p[0]), uint32(p[1])) {
				t.Fatalf("round %d: mixed-transport batch result %d disagrees with oracle", round, i)
			}
		}
	}
	if tx, rx := rt.met.muxTraffic.FramesTx.Load(), rt.met.muxTraffic.FramesRx.Load(); tx == 0 || rx == 0 {
		t.Fatalf("mux frame counters tx=%d rx=%d, want both positive", tx, rx)
	}
	if tx, rx := rt.met.muxTraffic.BytesTx.Load(), rt.met.muxTraffic.BytesRx.Load(); tx == 0 || rx == 0 {
		t.Fatalf("mux byte counters tx=%d rx=%d, want both positive", tx, rx)
	}
	if rt.met.wire.framesJSON.Load() == 0 {
		t.Fatal("mixed fleet sent no JSON batches")
	}
	if rt.replicas[0].client.MuxOpenConns()+rt.replicas[1].client.MuxOpenConns() == 0 {
		t.Fatal("no open mux connections after mux-routed batches")
	}
}

// TestResolveMuxAddr: wildcard advertised hosts (a reachd bound to
// ":7071" advertises what it heard) must be re-hosted onto the replica's
// known-good HTTP hostname; concrete hosts pass through; garbage yields
// "" (no mux rather than a bad dial target).
func TestResolveMuxAddr(t *testing.T) {
	cases := []struct {
		base, adv, want string
	}{
		{"http://10.1.2.3:8080", "10.1.2.3:7071", "10.1.2.3:7071"},
		{"http://10.1.2.3:8080", "0.0.0.0:7071", "10.1.2.3:7071"},
		{"http://10.1.2.3:8080", ":7071", "10.1.2.3:7071"},
		{"http://replica-7.prod:8080", "[::]:7071", "replica-7.prod:7071"},
		{"http://10.1.2.3:8080", "not an addr", ""},
		{"::not a url::", "0.0.0.0:7071", ""},
	}
	for _, c := range cases {
		if got := resolveMuxAddr(c.base, c.adv); got != c.want {
			t.Errorf("resolveMuxAddr(%q, %q) = %q, want %q", c.base, c.adv, got, c.want)
		}
	}
}
