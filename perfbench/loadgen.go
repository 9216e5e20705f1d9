package main

import (
	"bytes"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// loadgen drives the router closed-loop with batch clients, which post
// pre-encoded 512-pair bodies, and single clients, which issue
// /v1/reachable queries. Each client sends its next request only when
// the previous one has been answered and checked. Clients take the next
// item of their pool in order, so a run's cache state is set by the seed
// and by how far the run got.
type loadgen struct {
	client  *http.Client
	url     string
	batches *batchPool
	singles *singlePool
	nextB   atomic.Int64
	nextS   atomic.Int64
	rec     *recorder
}

func newLoadgen(url string, bp *batchPool, sp *singlePool, rec *recorder) *loadgen {
	tr := &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}
	return &loadgen{client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, url: url, batches: bp, singles: sp, rec: rec}
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// reqTrace is one traced request as the client saw it.
type reqTrace struct {
	id         string
	start, end time.Time
	route      time.Duration // the router's own Server-Timing "route" stage
}

// phase is what one closed-loop phase measured.
type phase struct {
	batchLat, singleLat []float64       // ns per request
	batchEnd, singleEnd []time.Duration // completion times since the phase began
	prepare, check      []float64       // ns per batch request: the generator's own cost
	batchPairs, singles int64
	batchTime           time.Duration // wall time of the batch client's loop
	singleTime          time.Duration
	out                 outcome
	batchTraces         []reqTrace
	singleTraces        []reqTrace
}

func (p *phase) pairsPerSec() float64 {
	return windowRate(p.batchEnd, batchPairs, p.batchTime, rateWindow)
}

func (p *phase) singlesPerSec() float64 {
	return windowRate(p.singleEnd, 1, p.singleTime, rateWindow)
}

func (p *phase) batchTail() (tail, int) {
	return windowTail(p.batchEnd, p.batchLat, p.batchTime, rateWindow)
}

func (p *phase) singleTail() (tail, int) {
	return windowTail(p.singleEnd, p.singleLat, p.singleTime, rateWindow)
}

// clients is how many closed-loop clients of each kind a phase runs.
type clients struct{ batch, single int }

// run drives the clients for d; with traced set, every request carries a
// trace ID and records a client span.
func (lg *loadgen) run(d time.Duration, c clients, traced bool) *phase {
	parts := make([]phase, c.batch+c.single)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i < c.batch {
				lg.batchLoop(&parts[i], start, deadline, traced)
			} else {
				lg.singleLoop(&parts[i], start, deadline, traced)
			}
		}()
	}
	wg.Wait()
	var p phase
	for _, q := range parts {
		p.merge(&q)
	}
	return &p
}

// merge folds one client's share of a phase into p.
func (p *phase) merge(q *phase) {
	p.batchLat = append(p.batchLat, q.batchLat...)
	p.singleLat = append(p.singleLat, q.singleLat...)
	p.batchEnd = append(p.batchEnd, q.batchEnd...)
	p.singleEnd = append(p.singleEnd, q.singleEnd...)
	p.prepare = append(p.prepare, q.prepare...)
	p.check = append(p.check, q.check...)
	p.batchPairs += q.batchPairs
	p.singles += q.singles
	p.batchTime = max(p.batchTime, q.batchTime)
	p.singleTime = max(p.singleTime, q.singleTime)
	p.out.add(q.out)
	p.batchTraces = append(p.batchTraces, q.batchTraces...)
	p.singleTraces = append(p.singleTraces, q.singleTraces...)
}

func (lg *loadgen) batchLoop(p *phase, start, deadline time.Time, traced bool) {
	var buf bytes.Buffer
	for time.Now().Before(deadline) {
		n := int(lg.nextB.Add(1))
		i := (n - 1) % len(lg.batches.bodies)
		tp := time.Now()
		req, err := http.NewRequest(http.MethodPost, lg.url+"/v1/batch", bytes.NewReader(lg.batches.bodies[i]))
		if err != nil {
			p.out.add(outcome{1, 1})
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		id := ""
		if traced {
			id = "b" + strconv.Itoa(n)
			req.Header.Set(obs.TraceHeader, id)
		}
		t0 := time.Now()
		ok, hdr := lg.do(req, &buf)
		t1 := time.Now()
		ok = ok && checkBatch(buf.Bytes(), lg.batches.want[i])
		t2 := time.Now()
		p.out.add(outcome{1, b2i(!ok)})
		p.batchLat = append(p.batchLat, float64(t1.Sub(t0)))
		p.batchEnd = append(p.batchEnd, t1.Sub(start))
		p.prepare = append(p.prepare, float64(t0.Sub(tp)))
		p.check = append(p.check, float64(t2.Sub(t1)))
		p.batchPairs += int64(len(lg.batches.want[i]))
		if traced {
			lg.rec.add("client.batch", id, "", t0, t1)
			p.batchTraces = append(p.batchTraces, reqTrace{id, t0, t1, routeStage(hdr)})
		}
	}
	p.batchTime = time.Since(start)
}

func (lg *loadgen) singleLoop(p *phase, start, deadline time.Time, traced bool) {
	var buf bytes.Buffer
	for time.Now().Before(deadline) {
		n := int(lg.nextS.Add(1))
		i := (n - 1) % len(lg.singles.query)
		req, err := http.NewRequest(http.MethodGet, lg.url+"/v1/reachable?"+lg.singles.query[i], nil)
		if err != nil {
			p.out.add(outcome{1, 1})
			continue
		}
		id := ""
		if traced {
			id = "s" + strconv.Itoa(n)
			req.Header.Set(obs.TraceHeader, id)
		}
		t0 := time.Now()
		ok, hdr := lg.do(req, &buf)
		t1 := time.Now()
		ok = ok && checkSingle(buf.Bytes(), lg.singles.want[i])
		p.out.add(outcome{1, b2i(!ok)})
		p.singleLat = append(p.singleLat, float64(t1.Sub(t0)))
		p.singleEnd = append(p.singleEnd, t1.Sub(start))
		p.singles++
		if traced {
			lg.rec.add("client.single", id, "", t0, t1)
			p.singleTraces = append(p.singleTraces, reqTrace{id, t0, t1, routeStage(hdr)})
		}
	}
	p.singleTime = time.Since(start)
}

// do sends req and reads the whole body into buf. It reports whether
// the exchange succeeded with 200, and the response headers.
func (lg *loadgen) do(req *http.Request, buf *bytes.Buffer) (bool, http.Header) {
	buf.Reset()
	resp, err := lg.client.Do(req)
	if err != nil {
		return false, nil
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK, resp.Header
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// routeStage extracts the router's "route" stage (time inside
// Router.Batch or Router.Reachable) from its Server-Timing header.
func routeStage(h http.Header) time.Duration {
	for _, part := range strings.Split(h.Get(obs.ServerTimingHeader), ",") {
		name, dur, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if ok && name == "route" {
			ms, err := strconv.ParseFloat(dur, 64)
			if err == nil {
				return time.Duration(ms * 1e6)
			}
		}
	}
	return -1
}

// checkBatch reports whether a server.BatchResponse body answers exactly
// want, in order.
func checkBatch(body []byte, want []bool) bool {
	const key = `"results":[`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return false
	}
	p := body[i+len(key):]
	for k, w := range want {
		if k > 0 {
			if len(p) == 0 || p[0] != ',' {
				return false
			}
			p = p[1:]
		}
		var ok bool
		if p, ok = cutBool(p, w); !ok {
			return false
		}
	}
	return len(p) > 0 && p[0] == ']'
}

// checkSingle reports whether a server.ReachableResponse body answers want.
func checkSingle(body []byte, want bool) bool {
	const key = `"reachable":`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return false
	}
	_, ok := cutBool(body[i+len(key):], want)
	return ok
}

// cutBool consumes the JSON literal for want from p.
func cutBool(p []byte, want bool) ([]byte, bool) {
	lit := "false"
	if want {
		lit = "true"
	}
	if !bytes.HasPrefix(p, []byte(lit)) {
		return p, false
	}
	return p[len(lit):], true
}
