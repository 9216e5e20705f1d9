package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"syscall"
	"time"

	reach "repro"
	"repro/internal/mux"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wireproto"
)

const (
	setupRepeats = 5       // setup_s is the median of this many set-ups
	poolBatches  = 8192    // pre-encoded bodies: more than a run posts
	poolSingles  = 1 << 18 // pre-built single queries
	warmup       = time.Second
	replayBodies = 128     // continuation bodies replayed layer by layer
	prefillPairs = 5 << 18 // per replica: fills small queue and ghost set
)

// paperQuerySets generates the §6.1 sets and answers them by BFS.
func paperQuerySets(r *run) ([]querySet, error) {
	ps, err := genPaperSets(r.fix.g, r.seed)
	if err != nil {
		return nil, err
	}
	all := append(append([][2]uint32(nil), ps.equal...), ps.random...)
	truth := groundTruth(r.fix.g, all)
	n := len(ps.equal)
	return []querySet{
		{"equal", ps.equal, truth[:n]},
		{"random", ps.random, truth[n:]},
	}, nil
}

// setPaperMetrics counts the outcomes of passes on one or more oracles
// and publishes their per-query times: the mean over oracles of each
// one's median pass. It notes them unscaled next to the calibration
// kernel's time.
func (r *run) setPaperMetrics(ps []*passes) {
	var calib []float64
	for _, p := range ps {
		r.out.add(p.out)
		calib = append(calib, p.calib...)
	}
	for _, name := range []string{"equal", "random"} {
		var scaled, raw []float64
		n := 0
		for _, p := range ps {
			scaled = append(scaled, nsPerQuery(p.passNs[name], paperQueries))
			raw = append(raw, nsPerQuery(p.rawNs[name], paperQueries))
			n += len(p.passNs[name])
		}
		r.m.set(name+"_ns_per_query", mean(scaled))
		r.notef("passes: %d over %s on %d oracles, unscaled %.2f ns/query (per oracle %.1f)", n, name, len(ps), mean(raw), raw)
	}
	r.notef("calibration: kernel median %.4f ms over %d runs, reference %.4f ms", median(calib)/1e6, len(calib), calibRef/1e6)
}

// loadSamples is how many fresh mmap loads mixed-zipf's passes are
// spread over. The page cache lays each newly written snapshot out
// differently, and in trials some loads answered the paper's sets up to
// 25% faster than others, while heap-built oracles and repeated passes
// on one load did not vary so: with one load per run, the workload's
// ns/query was bimodal between runs.
const loadSamples = 8

// passesOnLoads runs passes over sets for d in all, split over
// loadSamples oracles, each mmap-loaded from a snapshot of o written to
// a file of its own. Each mapping is closed after its passes, so one at
// a time counts toward the resident set; the files stay until every pass
// is done, so the page cache does not hand one layout's pages to the
// next.
func passesOnLoads(o *reach.Oracle, dir string, sets []querySet, d time.Duration) ([]*passes, error) {
	var paths []string
	defer func() {
		for _, p := range paths {
			os.Remove(p)
		}
	}()
	var ps []*passes
	for i := 0; i < loadSamples; i++ {
		path := filepath.Join(dir, fmt.Sprintf("passes-%d.snap", i))
		paths = append(paths, path)
		if err := o.SaveFile(path); err != nil {
			return nil, err
		}
		l, err := reach.Load(path)
		if err != nil {
			return nil, err
		}
		ps = append(ps, runPasses(l, sets, d/loadSamples, nil))
		if err := l.Close(); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// runOraclePaper is the paper's own measurement: repeated passes of
// Oracle.ReachableBatch over the equal and random sets, one goroutine,
// no server.
func runOraclePaper(r *run) error {
	sets, err := paperQuerySets(r)
	if err != nil {
		return err
	}
	var o *reach.Oracle
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		g, err := r.fix.newGraph()
		if err != nil {
			return err
		}
		if o, err = reach.Build(g, reach.MethodDL, reach.Options{}); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.m.set("setup_s", median(setups))
	r.notef("setup: %.3f s", setups)
	r.m.set("index_ints", float64(o.IndexSizeInts()))
	d := time.Duration(r.seconds * float64(time.Second))

	if !r.traced {
		p := runPasses(o, sets, d*8/10, nil)
		s := runSingles(o, sets, d*2/10)
		r.out.add(s.out)
		r.setPaperMetrics([]*passes{p})
		bt, st := summarize(p.batchLat), summarize(s.lat)
		r.m.set("pairs_per_s", p.pairsPerSec())
		r.m.set("batch_p50_ms", bt.P50/1e6)
		r.m.set("batch_p90_ms", bt.P90/1e6)
		r.m.set("singles_per_s", s.perSec())
		r.m.set("single_p50_us", st.P50/1e3)
		r.m.set("single_p90_us", st.P90/1e3)
		r.notef("samples: %d batch calls (%d beyond p90), %d single calls (%d beyond p90)", bt.N, bt.Beyond90, st.N, st.Beyond90)
		return nil
	}

	// Traced: untraced passes, then the same passes with a span per call.
	var before usage
	before.read()
	pu := runPasses(o, sets, d*4/10, nil)
	var after usage
	after.read()
	after.publish(r.m, before, pu.queries)
	r.rec.on.Store(true)
	pt := runPasses(o, sets, d*4/10, r.rec)
	r.rec.on.Store(false)
	r.out.add(pu.out)
	r.out.add(pt.out)
	r.m.set("trace.overhead_frac", 1-pt.pairsPerSec()/pu.pairsPerSec())
	r.m.set("loadgen.batch_samples", float64(len(pu.batchLat)))
	r.m.set("observe.build_ms", float64(o.Observers().PrecomputeTime())/1e6)
	return r.layersOnOracle(o, sets, pu)
}

// layersOnOracle measures the core build, observer and label layers on
// o, and the remainder of a 512-pair call they do not explain.
func (r *run) layersOnOracle(o *reach.Oracle, sets []querySet, p *passes) error {
	took, lab, err := buildCore(o.Graph())
	if err != nil {
		return err
	}
	r.m.set("core.build_s", took.Seconds())
	attributed, err := oracleLayers(o, lab, sets, r.m)
	if err != nil {
		return err
	}
	if _, ok := r.m["unattributed_us"]; !ok {
		perQuery := float64(p.busy.Nanoseconds()) / float64(p.queries)
		r.m.set("unattributed_us", (perQuery-attributed)*batchPairs/1e3)
	}
	return nil
}

// routedInputs are a routed workload's pre-generated streams, answered.
type routedInputs struct {
	batches *batchPool
	singles *singlePool
	prefill []querySet // one stream per replica, to fill its cache first
	sets    []querySet // the paper's sets, for passes on replica 0
}

// routedPools generates the batch, single and prefill streams, all drawn
// from one Zipf distribution over a fixed universe of pairs, and the
// paper sets, and answers all of them with one BFS sweep.
func routedPools(r *run) (*routedInputs, error) {
	sets, err := paperQuerySets(r)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.seed))
	universe := uniformPairs(rng, r.fix.g.NumVertices(), zipfUniverse)
	draw := func(count int) [][2]uint32 { return zipfPairs(rng, universe, count) }
	sizes := []int{poolBatches * batchPairs, poolSingles}
	for i := 0; i < replicas; i++ {
		sizes = append(sizes, prefillPairs)
	}
	var pairs [][2]uint32
	for _, s := range sizes {
		pairs = append(pairs, draw(s)...)
	}
	truth := groundTruth(r.fix.g, pairs)
	cut := func() ([][2]uint32, []bool) {
		p, t := pairs[:sizes[0]], truth[:sizes[0]]
		pairs, truth, sizes = pairs[sizes[0]:], truth[sizes[0]:], sizes[1:]
		return p, t
	}
	in := &routedInputs{sets: sets}
	in.batches = newBatchPool(cut())
	in.singles = newSinglePool(cut())
	for i := 0; i < replicas; i++ {
		p, t := cut()
		in.prefill = append(in.prefill, querySet{"prefill", p, t})
	}
	return in, nil
}

// prefill fills each replica's cache through Server.ReachableBatch with
// its own stream from the workload's distribution, replicas in parallel,
// so the timed phases start from a cache at capacity.
func prefill(st *stack, streams []querySet) outcome {
	const chunk = 4096
	outs := make([]outcome, len(st.servers))
	var wg sync.WaitGroup
	for i, s := range st.servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qs := streams[i]
			for lo := 0; lo < len(qs.pairs); lo += chunk {
				hi := min(lo+chunk, len(qs.pairs))
				res, err := s.ReachableBatch(context.Background(), qs.pairs[lo:hi])
				outs[i].add(outcome{1, b2i(err != nil || !equalBools(res, qs.want[lo:hi]))})
			}
		}()
	}
	wg.Wait()
	var total outcome
	for _, o := range outs {
		total.add(o)
	}
	return total
}

// routedClients is the routed workload's client mix: one batch client
// and one single-query client at once, so a change that favours one kind
// of request at the other's expense shows. Mixes that leave a CPU idle
// between hops, or that queue requests behind uncached batches, were not
// steady on a shared VM: hypervisor steal swung their p90 by 25-57%
// between runs, against at most 12% for this mix on Zipf pairs.
var routedClients = clients{batch: 1, single: 1}

// runRouted drives the routed stack closed-loop with routedClients, then
// runs passes over the paper sets on fresh mmap loads of its snapshot
// while the fleet idles.
func runRouted(r *run) error {
	in, err := routedPools(r)
	if err != nil {
		return err
	}
	var st *stack
	var setups, builds, saves, loads, enrolls []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.stop()
		}
		if st, err = startStack(r.fix, r.dir, r.rec); err != nil {
			return err
		}
		setups = append(setups, st.setup.Seconds())
		builds = append(builds, st.build.Seconds())
		saves = append(saves, st.save.Seconds())
		loads = append(loads, st.load.Seconds())
		enrolls = append(enrolls, st.enroll.Seconds())
	}
	defer st.stop()
	r.m.set("setup_s", median(setups))
	r.notef("setup: %.3f s; medians of its stages: build %.3f s, save %.1f ms, load %.1f ms, enroll %.1f ms",
		setups, median(builds), 1e3*median(saves), 1e3*median(loads), 1e3*median(enrolls))
	r.m.set("index_ints", float64(st.oracles[0].IndexSizeInts()))
	r.out.add(prefill(st, in.prefill))
	in.prefill = nil
	lg := newLoadgen(st.url, in.batches, in.singles, r.rec)
	defer lg.close()
	r.out.add(lg.run(warmup, routedClients, false).out)
	d := time.Duration(r.seconds * float64(time.Second))
	if r.traced {
		return r.tracedRouted(st, lg, in.sets, d)
	}
	ph := lg.run(d*6/10, routedClients, false)
	r.out.add(ph.out)
	bt, bw := ph.batchTail()
	stl, sw := ph.singleTail()
	r.m.set("pairs_per_s", ph.pairsPerSec())
	r.m.set("batch_p50_ms", bt.P50/1e6)
	r.m.set("batch_p90_ms", bt.P90/1e6)
	r.m.set("singles_per_s", ph.singlesPerSec())
	r.m.set("single_p50_us", stl.P50/1e3)
	r.m.set("single_p90_us", stl.P90/1e3)
	r.notef("samples: %d batches, %d singles; percentiles over %d and %d windows of %s, each with at least 10 samples beyond its p90",
		bt.N, stl.N, bw, sw, rateWindow)
	runtime.GC() // let the load's garbage go before timing the oracle alone
	ps, err := passesOnLoads(st.oracles[0], r.dir, in.sets, d*4/10)
	if err != nil {
		return err
	}
	r.setPaperMetrics(ps)
	return nil
}

// tracedRouted runs an untraced and a traced phase of the same loop,
// then replays each layer on continuation pairs the run has not sent.
func (r *run) tracedRouted(st *stack, lg *loadgen, sets []querySet, d time.Duration) error {
	m := r.m
	m.set("snapshot.save_ms", float64(st.save)/1e6)
	m.set("snapshot.load_ms", float64(st.load)/1e6)
	m.set("fleet.enroll_ms", float64(st.enroll)/1e6)
	m.set("observe.build_ms", float64(st.observePrecompute)/1e6)

	c0, err := st.counters()
	if err != nil {
		return err
	}
	var u0 usage
	u0.read()
	pu := lg.run(d*4/10, routedClients, false)
	var u1 usage
	u1.read()
	c1, err := st.counters()
	if err != nil {
		return err
	}
	r.out.add(pu.out)
	u1.publish(m, u0, pu.batchPairs+pu.singles)
	hits, misses := c1.hits-c0.hits, c1.misses-c0.misses
	m.set("server.cache_hit_frac", float64(hits)/float64(max(hits+misses, 1)))
	m.set("server.cache_lookup_ns", 1e9*(c1.cacheSum-c0.cacheSum)/(c1.cacheCount-c0.cacheCount))
	m.set("server.index_probe_ns", 1e9*(c1.probeSum-c0.probeSum)/(c1.probeCount-c0.probeCount))
	m.set("mux.bytes_per_pair", float64(c1.muxBytes-c0.muxBytes)/float64(pu.batchPairs))
	m.set("loadgen.prepare_us", median(pu.prepare)/1e3)
	m.set("loadgen.check_us", median(pu.check)/1e3)
	m.set("loadgen.batch_samples", float64(len(pu.batchLat)))
	m.set("loadgen.single_samples", float64(len(pu.singleLat)))

	r.rec.on.Store(true)
	pt := lg.run(d*4/10, routedClients, true)
	r.rec.on.Store(false)
	r.out.add(pt.out)
	m.set("trace.overhead_frac", 1-pt.pairsPerSec()/pu.pairsPerSec())

	if err := r.replay(st, lg); err != nil {
		return err
	}
	r.spanMetrics(pt)

	runtime.GC()
	p := runPasses(st.oracles[0], sets, d*2/10, nil)
	r.out.add(p.out)
	return r.layersOnOracle(st.oracles[0], sets, p)
}

// spanMetrics derives self times from the traced phase's spans: a routed
// request's Router.Batch (or Router.Reachable) time minus the union of
// its replica spans, which overlap because sub-batches run in parallel.
func (r *run) spanMetrics(pt *phase) {
	replicaMux := r.rec.byTrace("replica.mux")
	replicaHTTP := r.rec.byTrace("replica.http")
	edges := r.rec.byTrace("fleet.edge")
	self := func(traces []reqTrace, children map[string][]span) (routeSelf, child, rest []float64) {
		for _, t := range traces {
			if t.route < 0 {
				continue
			}
			var ivs []interval
			for _, s := range children[t.id] {
				ivs = append(ivs, s.interval())
				child = append(child, float64(s.End-s.Start))
			}
			// The router reports only the route stage's duration; place
			// it at the edge span's start so the dump keeps its length.
			if e := edges[t.id]; len(e) == 1 {
				r.rec.put(span{Name: "fleet.route", Trace: t.id, Parent: "fleet.edge", Start: e[0].Start, End: e[0].Start + int64(t.route)})
			}
			routeSelf = append(routeSelf, float64(selfTime(int64(t.route), ivs)))
			rest = append(rest, float64(t.end.Sub(t.start)-t.route))
		}
		return
	}
	routeSelf, _, rest := self(pt.batchTraces, replicaMux)
	r.m.set("fleet.route_self_us", median(routeSelf)/1e3)
	r.m.set("unattributed_us", median(rest)/1e3-r.m["fleet.edge_decode_us"]-r.m["fleet.edge_encode_us"])
	if singleSelf, singleSpans, _ := self(pt.singleTraces, replicaHTTP); len(singleSelf) > 0 {
		r.m.set("fleet.single_route_self_us", median(singleSelf)/1e3)
		r.m.set("server.single_us", median(singleSpans)/1e3)
	}
}

// replay times each batch-path layer alone on the next bodies of the
// run's stream, so every replayed pair meets the cache at the run's skew
// as a live pair would.
// Each body's first half goes to replica 0 through Server.ReachableBatch,
// its second half to replica 1 through a mux connection.
func (r *run) replay(st *stack, lg *loadgen) error {
	ctx := context.Background()
	type body struct {
		pairs [][2]uint32
		want  []bool
	}
	var bodies []body
	var dec []float64
	for k := 0; k < replayBodies; k++ {
		i := int(lg.nextB.Add(1)-1) % len(lg.batches.bodies)
		t0 := time.Now()
		var req server.BatchRequest
		d := json.NewDecoder(bytes.NewReader(lg.batches.bodies[i]))
		d.DisallowUnknownFields()
		if err := d.Decode(&req); err != nil {
			return fmt.Errorf("replay decode: %w", err)
		}
		dec = append(dec, float64(time.Since(t0)))
		p32 := make([][2]uint32, len(req.Pairs))
		for j, p := range req.Pairs {
			p32[j] = [2]uint32{uint32(p[0]), uint32(p[1])}
		}
		bodies = append(bodies, body{p32, lg.batches.want[i]})
	}
	r.m.set("fleet.edge_decode_us", median(dec)/1e3)

	var enc []float64
	var buf bytes.Buffer
	for _, b := range bodies {
		buf.Reset()
		t0 := time.Now()
		if err := json.NewEncoder(&buf).Encode(server.BatchResponse{Count: len(b.want), Results: b.want}); err != nil {
			return err
		}
		enc = append(enc, float64(time.Since(t0)))
	}
	r.m.set("fleet.edge_encode_us", median(enc)/1e3)

	half := batchPairs / 2
	cn, err := mux.Dial(ctx, st.muxAddrs[1], mux.ClientConfig{Fingerprint: st.fingerprint})
	if err != nil {
		return fmt.Errorf("replay mux dial: %w", err)
	}
	defer cn.Close()
	var srvLat, muxLat []float64
	out := make([]bool, half)
	for _, b := range bodies {
		t0 := time.Now()
		res, err := st.servers[0].ReachableBatch(ctx, b.pairs[:half])
		srvLat = append(srvLat, float64(time.Since(t0)))
		r.out.add(outcome{1, b2i(err != nil || !equalBools(res, b.want[:half]))})
		t1 := time.Now()
		err = cn.Batch(ctx, b.pairs[half:], out, "")
		muxLat = append(muxLat, float64(time.Since(t1)))
		r.out.add(outcome{1, b2i(err != nil || !equalBools(out, b.want[half:]))})
	}
	r.m.set("server.batch_us", median(srvLat)/1e3)
	r.m.set("mux.batch_self_us", (median(muxLat)-median(srvLat))/1e3)

	// The binary codec both ends of a sub-batch run: the router encodes
	// the request and decodes the response, the replica the reverse.
	reqBuf := make([]byte, wireproto.RequestSize(half))
	respBuf := make([]byte, wireproto.ResponseSize(half))
	pairsOut := make([][2]uint32, half)
	pairsN := float64(len(bodies) * half)
	encNs := timePerItem(1, func() {
		for _, b := range bodies {
			wireproto.EncodeRequest(reqBuf, b.pairs[:half])
			wireproto.EncodeResponse(respBuf, b.want[:half])
		}
	}) / pairsN
	var codecErr error
	decNs := timePerItem(1, func() {
		for _, b := range bodies {
			n := wireproto.EncodeRequest(reqBuf, b.pairs[:half])
			if err := wireproto.DecodeRequest(reqBuf[:n], pairsOut); err != nil {
				codecErr = err
			}
			n = wireproto.EncodeResponse(respBuf, b.want[:half])
			if err := wireproto.DecodeResponse(respBuf[:n], out); err != nil {
				codecErr = err
			}
		}
	})/pairsN - encNs
	if codecErr != nil {
		return fmt.Errorf("replay wire codec: %w", codecErr)
	}
	r.m.set("wireproto.encode_ns_per_pair", encNs)
	r.m.set("wireproto.decode_ns_per_pair", decNs)
	return nil
}

// stackCounters are the replica-side counters read around a phase.
type stackCounters struct {
	hits, misses         int64
	cacheSum, cacheCount float64 // reach_stage_seconds{stage="cache_lookup"}
	probeSum, probeCount float64 // reach_stage_seconds{stage="index_probe"}
	muxBytes             int64
}

// counters sums cache statistics, the sampled stage histograms of each
// replica's /metrics and mux traffic over both replicas.
func (st *stack) counters() (stackCounters, error) {
	var c stackCounters
	for i, s := range st.servers {
		cs := s.Stats().Cache
		c.hits += cs.Hits
		c.misses += cs.Misses
		rr := httptest.NewRecorder()
		s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
		body := rr.Body.Bytes()
		for _, h := range []struct {
			stage      string
			sum, count *float64
		}{{"cache_lookup", &c.cacheSum, &c.cacheCount}, {"index_probe", &c.probeSum, &c.probeCount}} {
			sh, err := obs.ParseHistogram(bytes.NewReader(body), "reach_stage_seconds", obs.Labels{"stage": h.stage})
			if err != nil {
				return c, err
			}
			*h.sum += sh.Sum
			*h.count += float64(sh.Count)
		}
		t := st.muxSrvs[i].Traffic()
		c.muxBytes += t.BytesRx.Load() + t.BytesTx.Load()
	}
	return c, nil
}

// usage is the process's allocation, GC and CPU counters at one instant.
type usage struct {
	allocBytes, gcCPU, totalCPU float64
	cpu                         time.Duration
}

var usageSamples = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func (u *usage) read() {
	s := make([]rtmetrics.Sample, len(usageSamples))
	for i, name := range usageSamples {
		s[i].Name = name
	}
	runtime.GC() // settle the GC CPU estimates at the boundary
	rtmetrics.Read(s)
	u.allocBytes = float64(s[0].Value.Uint64())
	u.gcCPU, u.totalCPU = s[1].Value.Float64(), s[2].Value.Float64()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
}

// publish sets the runtime and process metrics for the interval since
// before, over pairs answered in it.
func (u usage) publish(m metrics, before usage, pairs int64) {
	m.set("runtime.alloc_bytes_per_pair", (u.allocBytes-before.allocBytes)/float64(pairs))
	m.set("runtime.gc_cpu_frac", (u.gcCPU-before.gcCPU)/(u.totalCPU-before.totalCPU))
	m.set("process.cpu_us_per_pair", float64(u.cpu-before.cpu)/1e3/float64(pairs))
}
