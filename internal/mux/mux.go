// Package mux is the persistent multiplexed raw-TCP transport for
// router↔replica batch traffic: wireproto frames prefixed with a small
// stream envelope travel over a few long-lived connections per replica,
// so the fleet router pipelines many in-flight batches without paying
// HTTP/1.1 header parsing or per-request connection bookkeeping on
// every call. PR 9 made the framing free; this makes the transport
// around it (nearly) free too.
//
// The first frame in each direction is a handshake carrying a
// capability mask and the snapshot fingerprint, so the enrollment-grade
// identity check the router performs over HTTP survives raw-TCP
// reconnects: a replica restarted onto a different snapshot refuses the
// connection with an in-band 409 error frame and the client falls back
// to HTTP (where the probe loop will notice the fingerprint change).
//
// The transport is strictly an optimization: every failure — dial
// refused, handshake mismatch, connection death mid-batch — degrades to
// JSON over HTTP for that batch, never to a wrong answer. Steady-state send
// and receive allocate nothing on either side (AllocsPerRun-pinned).
package mux

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/wireproto"
)

// Defaults. Window bounds in-flight batches per connection (the
// dispatch tables are sized by it); ConnsPerReplica is how many
// connections a client pool keeps toward one replica.
const (
	DefaultWindow          = 32
	DefaultConnsPerReplica = 2
	DefaultIdleTimeout     = 2 * time.Minute
	DefaultMaxBatchPairs   = 1 << 20

	// handshakeTimeout bounds the one blocking exchange a connection
	// performs; everything after it is pipelined.
	handshakeTimeout = 5 * time.Second
)

// Client/server errors.
var (
	// ErrClosed: the connection or pool has been closed (or died).
	ErrClosed = errors.New("mux: connection closed")
	// ErrNoConn: the pool has no live connection and will not dial now
	// (backoff, or another goroutine is already dialing). Callers fall
	// back to HTTP for this batch.
	ErrNoConn = errors.New("mux: no connection available")
	// ErrFingerprint: the peer serves a different snapshot than this
	// side expects — the raw-TCP analogue of refusing enrollment.
	ErrFingerprint = errors.New("mux: snapshot fingerprint mismatch")
	// errProtocol: the peer violated the stream framing rules; the
	// connection is unusable and is torn down.
	errProtocol = errors.New("mux: stream protocol violation")
)

// Fail is an in-band error frame surfaced as a Go error: the
// HTTP-shaped status and message a replica sent instead of a response
// frame. It mirrors the semantics of an HTTP error on the fallback
// path, so the fleet client maps both to the same handling (429 fails
// over, 5xx retries elsewhere, and so on).
type Fail struct {
	Status int
	Msg    string
}

func (f *Fail) Error() string {
	return fmt.Sprintf("mux: upstream status %d: %s", f.Status, f.Msg)
}

// Counters aggregates transport traffic across connections sharing
// them (a server, or every pool one fleet client owns). Updated with
// relaxed atomics on the hot path, read by metrics exposition.
type Counters struct {
	FramesTx atomic.Int64
	FramesRx atomic.Int64
	BytesTx  atomic.Int64
	BytesRx  atomic.Int64
}

// maxEnvelopedResponse is the largest frame a client accepts in an
// envelope: the response to its largest allowed request, or the
// largest error/handshake frame a server may send.
func maxEnvelopedResponse(maxPairs int) int {
	m := wireproto.ResponseSize(maxPairs)
	if e := wireproto.ErrorSize(wireproto.MaxErrorMsg); e > m {
		m = e
	}
	if h := wireproto.HandshakeSize(wireproto.MaxFingerprint); h > m {
		m = h
	}
	return m
}
