package main

import (
	"bufio"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wireproto"
)

// span is one timed call at a layer boundary. Spans of one request share
// Trace (the X-Reach-Trace ID); Parent names the enclosing span.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// recorder keeps spans in memory while on; the benchmark writes them out
// when it ends. Times are nanoseconds since the recorder was made, read
// from the monotonic clock.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(name, trace, parent string, start, end time.Time) {
	if r == nil || !r.on.Load() {
		return
	}
	r.put(span{Name: name, Trace: trace, Parent: parent, Start: r.ns(start), End: r.ns(end)})
}

// put records s whether or not the recorder is on.
func (r *recorder) put(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// byTrace groups the recorded spans of one name by trace ID.
func (r *recorder) byTrace(name string) map[string][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]span{}
	for _, s := range r.spans {
		if s.Name == name {
			out[s.Trace] = append(out[s.Trace], s)
		}
	}
	return out
}

// dump writes the spans as JSON lines, preceded by one line describing
// the run and the machine.
func (r *recorder) dump(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedHandler records one span per request served by next, named name
// and keyed by the request's X-Reach-Trace header.
func tracedHandler(rec *recorder, name, parent string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		rec.add(name, r.Header.Get(obs.TraceHeader), parent, t0, time.Now())
	})
}

// frameScanner follows one direction of a mux connection — enveloped
// frames, each optionally preceded by a trace field — and reports every
// frame as its last byte passes. It copies only envelope and trace
// bytes, never frame payloads.
type frameScanner struct {
	hdr      [wireproto.EnvelopeSize + 4 + wireproto.MaxTraceBytes]byte
	have     int // header bytes buffered in the current frame
	phase    int
	traced   bool
	traceLen int
	stream   uint32
	frameLen int
	skip     int // payload bytes still to pass
	broken   bool
}

const (
	phaseEnvelope = iota
	phaseTraceLen
	phaseTrace
	phasePayload
)

// headerWant is how many header bytes the current phase needs buffered.
func (fs *frameScanner) headerWant() int {
	switch fs.phase {
	case phaseEnvelope:
		return wireproto.EnvelopeSize
	case phaseTraceLen:
		return wireproto.EnvelopeSize + 4
	default:
		return wireproto.EnvelopeSize + 4 + fs.traceLen
	}
}

func (fs *frameScanner) feed(p []byte, done func(stream uint32, trace []byte)) {
	for len(p) > 0 && !fs.broken {
		if fs.phase == phasePayload {
			k := min(fs.skip, len(p))
			fs.skip -= k
			p = p[k:]
			if fs.skip == 0 {
				var trace []byte
				if fs.traced {
					trace = fs.hdr[wireproto.EnvelopeSize+4 : wireproto.EnvelopeSize+4+fs.traceLen]
				}
				done(fs.stream, trace)
				fs.phase, fs.have = phaseEnvelope, 0
			}
			continue
		}
		want := fs.headerWant()
		k := copy(fs.hdr[fs.have:want], p)
		fs.have += k
		p = p[k:]
		if fs.have == want {
			fs.advance()
		}
	}
}

// advance moves past a fully buffered header phase.
func (fs *frameScanner) advance() {
	switch fs.phase {
	case phaseEnvelope:
		stream, flags, frameLen, err := wireproto.ParseEnvelope(fs.hdr[:wireproto.EnvelopeSize], 1<<30)
		if err != nil {
			fs.broken = true
			return
		}
		fs.stream, fs.frameLen = stream, int(frameLen)
		fs.traced = flags&wireproto.EnvFlagTrace != 0
		if fs.traced {
			fs.phase = phaseTraceLen
			return
		}
	case phaseTraceLen:
		n, err := wireproto.ParseTraceLen(fs.hdr[wireproto.EnvelopeSize : wireproto.EnvelopeSize+4])
		if err != nil {
			fs.broken = true
			return
		}
		fs.traceLen, fs.phase = n, phaseTrace
		if n > 0 {
			return
		}
	}
	fs.phase, fs.skip = phasePayload, fs.frameLen
}

// tracedListener wraps a replica's mux listener so that every batch
// frame it serves becomes a "replica.mux" span, from the moment the
// request frame's last byte is read to the moment its response is
// written. The trace ID comes from the frame's envelope.
type tracedListener struct {
	net.Listener
	rec *recorder
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: l.rec, open: map[uint32]openFrame{}}, nil
}

type openFrame struct {
	trace string
	start time.Time
}

type tracedConn struct {
	net.Conn
	rec  *recorder
	in   frameScanner // used by the server's reader goroutine only
	out  frameScanner // used by the server's writer goroutine only
	mu   sync.Mutex
	open map[uint32]openFrame
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.in.feed(p[:n], func(stream uint32, trace []byte) {
			if len(trace) == 0 || !c.rec.on.Load() {
				return // handshakes, untraced frames, recorder off
			}
			c.mu.Lock()
			c.open[stream] = openFrame{string(trace), now}
			c.mu.Unlock()
		})
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		now := time.Now()
		c.out.feed(p[:n], func(stream uint32, _ []byte) {
			c.mu.Lock()
			of, ok := c.open[stream]
			delete(c.open, stream)
			c.mu.Unlock()
			if ok {
				c.rec.add("replica.mux", of.trace, "fleet.route", of.start, now)
			}
		})
	}
	return n, err
}
