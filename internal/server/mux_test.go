package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	reach "repro"
	"repro/internal/mux"
	"repro/internal/wireproto"
)

// The binary batch path: wireproto frames over the stream transport,
// served by NewMuxServer. These tests drive it the way a fleet router
// does, over a loopback mux.Dial, and compare against the JSON path's
// semantics (results[i] answers pairs[i], unknown vertices answer false,
// same limits and overload behavior).

// startMux serves s's stream transport on a loopback listener, the way
// reachd -mux-addr does, and returns the listener's address.
func startMux(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ms := s.NewMuxServer(func(string, ...any) {})
	go ms.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // force-close: the test's clients are done
		ms.Shutdown(ctx)
	})
	return ln.Addr().String()
}

func dialMux(t *testing.T, addr string) *mux.Conn {
	t.Helper()
	cn, err := mux.Dial(context.Background(), addr, mux.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cn.Close() })
	return cn
}

func muxBatch(t *testing.T, cn *mux.Conn, pairs [][2]uint32) []bool {
	t.Helper()
	out := make([]bool, len(pairs))
	if err := cn.Batch(context.Background(), pairs, out, ""); err != nil {
		t.Fatalf("mux batch of %d pairs: %v", len(pairs), err)
	}
	return out
}

// TestBinaryBatch: a mux batch answers exactly what Server.Reachable
// answers for the same pairs.
func TestBinaryBatch(t *testing.T) {
	g, s, _ := fixture(t, Config{})
	cn := dialMux(t, startMux(t, s))
	pairs := make([][2]uint32, 300)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(i % g.NumVertices()), uint32((i * 7) % g.NumVertices())}
	}
	got := muxBatch(t, cn, pairs)
	for i, p := range pairs {
		if want, _ := s.Reachable(p[0], p[1]); got[i] != want {
			t.Fatalf("pair %d (%d,%d): mux says %v, server says %v", i, p[0], p[1], got[i], want)
		}
	}
}

// TestBinaryBatchUnknownVertices: out-of-range IDs answer false instead
// of failing the batch, and — as on the JSON path — never reach the
// cache.
func TestBinaryBatchUnknownVertices(t *testing.T) {
	g, s, _ := fixture(t, Config{})
	cn := dialMux(t, startMux(t, s))
	huge := uint32(g.NumVertices() + 1000)
	if got := muxBatch(t, cn, [][2]uint32{{huge, 0}, {0, huge}}); got[0] || got[1] {
		t.Fatalf("unknown-vertex pairs answered %v, want false,false", got)
	}
	if cs := s.Stats().Cache; cs.Entries != 0 || cs.Hits+cs.Misses != 0 {
		t.Fatalf("unknown-vertex pairs touched the cache: %+v", cs)
	}
}

// TestMuxOrigIDMapping: with OrigIDs configured, frame IDs are the
// edge-list file's own IDs, resolved exactly like /v1/batch does.
func TestMuxOrigIDMapping(t *testing.T) {
	// Raw IDs 100, 7, 42 densify (in order of appearance) to 0, 1, 2.
	g, orig, err := reach.ReadGraph(bytes.NewReader([]byte("100 7\n7 42\n")))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := reach.Build(g, reach.MethodDL, reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, oracle, Config{OrigIDs: orig})
	t.Cleanup(s.Close)
	cn := dialMux(t, startMux(t, s))
	// Dense ID 0 is not a raw ID of this file: it answers false rather
	// than silently standing in for vertex 100.
	got := muxBatch(t, cn, [][2]uint32{{100, 42}, {42, 100}, {999, 42}, {0, 42}})
	if want := []bool{true, false, false, false}; !slices.Equal(got, want) {
		t.Fatalf("raw-ID mux batch = %v, want %v", got, want)
	}
}

// TestMuxMaxInFlightGate: a saturated admission gate sheds a mux batch
// with an in-band 429, counted as rejected rather than as an error, and
// draining the gate restores service on the same connection.
func TestMuxMaxInFlightGate(t *testing.T) {
	_, s, _ := fixture(t, Config{MaxInFlight: 1})
	cn := dialMux(t, startMux(t, s))
	s.gate <- struct{}{}
	err := cn.Batch(context.Background(), [][2]uint32{{0, 1}}, make([]bool, 1), "")
	var f *mux.Fail
	if !errors.As(err, &f) || f.Status != http.StatusTooManyRequests {
		t.Fatalf("gated mux batch returned %v, want *mux.Fail with status 429", err)
	}
	if st := s.Stats().Server; st.Rejected != 1 || st.Errors != 0 {
		t.Fatalf("gate counters: %+v", st)
	}
	<-s.gate
	muxBatch(t, cn, [][2]uint32{{0, 1}})
}

// rawMuxConn opens a stream-transport connection and completes the
// handshake by hand (declining trace fields), so a test can put
// arbitrary frames on the wire.
func rawMuxConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	hs := make([]byte, wireproto.EnvelopeSize+wireproto.HandshakeSize(0))
	n := wireproto.EncodeHandshake(hs[wireproto.EnvelopeSize:], 0, "")
	wireproto.PutEnvelope(hs, 0, 0, uint32(n))
	if _, err := c.Write(hs); err != nil {
		t.Fatal(err)
	}
	if _, err := readMuxFrame(c); err != nil {
		t.Fatalf("reading the server handshake: %v", err)
	}
	return c
}

// sendMuxFrame writes frame on stream behind a trace-less envelope.
func sendMuxFrame(t *testing.T, c net.Conn, stream uint32, frame []byte) {
	t.Helper()
	buf := make([]byte, wireproto.EnvelopeSize+len(frame))
	wireproto.PutEnvelope(buf, stream, 0, uint32(len(frame)))
	copy(buf[wireproto.EnvelopeSize:], frame)
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// readMuxFrame reads one enveloped frame off a raw connection.
func readMuxFrame(c net.Conn) ([]byte, error) {
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var env [wireproto.EnvelopeSize]byte
	if _, err := io.ReadFull(c, env[:]); err != nil {
		return nil, err
	}
	_, _, n, err := wireproto.ParseEnvelope(env[:], 1<<20)
	if err != nil {
		return nil, err
	}
	frame := make([]byte, n)
	_, err = io.ReadFull(c, frame)
	return frame, err
}

func encodeRequestFrame(pairs [][2]uint32) []byte {
	frame := make([]byte, wireproto.RequestSize(len(pairs)))
	wireproto.EncodeRequest(frame, pairs)
	return frame
}

// TestBinaryBatchRejections drives every malformed-frame branch of the
// stream transport. A well-enveloped but malformed frame is answered
// in-band with a 400 error frame and the connection keeps serving; an
// envelope the receiver cannot trust (a length too short for a frame
// header, or above its own batch limit) is malformed per docs/WIRE.md
// and closes that connection only.
func TestBinaryBatchRejections(t *testing.T) {
	const limit = 100
	_, s, _ := fixture(t, Config{MaxBatchPairs: limit})
	addr := startMux(t, s)
	valid := encodeRequestFrame([][2]uint32{{1, 2}})
	badMagic := bytes.Clone(valid)
	badMagic[0] = 'X'
	errorKind := make([]byte, wireproto.ErrorSize(2))
	wireproto.EncodeError(errorKind, 400, "hi")

	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"truncated payload", valid[:len(valid)-3]},
		{"trailing bytes", append(bytes.Clone(valid), 0xEE)},
		{"bad magic", badMagic},
		{"error frame as request", errorKind},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := rawMuxConn(t, addr)
			sendMuxFrame(t, c, 1, tc.frame)
			resp, err := readMuxFrame(c)
			if err != nil {
				t.Fatalf("no answer to a malformed frame: %v", err)
			}
			status, msg, err := wireproto.DecodeError(resp)
			if err != nil || status != http.StatusBadRequest || !strings.Contains(msg, "malformed") {
				t.Fatalf("answer (%d, %q, %v), want a 400 malformed-frame error frame", status, msg, err)
			}
			// The connection survives: the next frame is answered.
			sendMuxFrame(t, c, 2, valid)
			if resp, err := readMuxFrame(c); err != nil || wireproto.IsError(resp) {
				t.Fatalf("connection stopped serving after a malformed frame: %v", err)
			}
		})
	}

	t.Run("truncated header", func(t *testing.T) {
		c := rawMuxConn(t, addr)
		sendMuxFrame(t, c, 1, valid[:8])
		if _, err := readMuxFrame(c); err == nil {
			t.Fatal("a frame length below the header size was answered; want the connection closed")
		}
	})

	t.Run("over pair limit", func(t *testing.T) {
		over, bystander := dialMux(t, addr), dialMux(t, addr)
		err := over.Batch(context.Background(), make([][2]uint32, limit+1), make([]bool, limit+1), "")
		var f *mux.Fail
		if err == nil || errors.As(err, &f) {
			t.Fatalf("over-limit frame returned %v, want the connection closed", err)
		}
		if !over.Dead() {
			t.Fatal("connection still alive after an over-limit frame")
		}
		// Only that connection closed: others, and fresh dials, serve.
		pairs := [][2]uint32{{1, 2}, {2, 1}}
		want := []bool{s.oracle.Reachable(1, 2), s.oracle.Reachable(2, 1)}
		for _, cn := range []*mux.Conn{bystander, dialMux(t, addr)} {
			if got := muxBatch(t, cn, pairs); !slices.Equal(got, want) {
				t.Fatalf("after the over-limit frame: %v, want %v", got, want)
			}
		}
	})
}
