package main

import (
	"encoding/json"
	"math"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/wireproto"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {1, 10}} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples must be NaN")
	}
}

func TestSummarizeCountsSamplesBeyondP90(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1, order must not matter
	}
	s := summarize(xs)
	if s.N != 200 || s.P50 != 100 || s.P90 != 180 || s.Beyond90 != 20 {
		t.Errorf("summarize = %+v, want N 200, P50 100, P90 180, Beyond90 20", s)
	}
	if xs[0] != 200 {
		t.Error("summarize reordered its input")
	}
	// 99 samples leave only 9 beyond the p90 rank: not enough to trust.
	if s := summarize(xs[:99]); s.Beyond90 != 9 {
		t.Errorf("Beyond90 of 99 samples = %d, want 9", s.Beyond90)
	}
}

func TestUnionLenCountsOverlapOnce(t *testing.T) {
	cases := []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}}, 10},
		{[]interval{{0, 10}, {5, 15}}, 15},          // overlapping sub-batches
		{[]interval{{20, 30}, {0, 10}}, 20},         // disjoint, unsorted
		{[]interval{{0, 10}, {2, 4}, {10, 12}}, 12}, // nested and touching
	}
	for _, c := range cases {
		if got := unionLen(c.ivs); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestSelfTimeWithParallelChildren(t *testing.T) {
	// Two sub-batches running in parallel for 60 of the parent's 100:
	// summing them would claim 110 and leave a negative self time.
	children := []interval{{20, 70}, {20, 80}}
	if got := selfTime(100, children); got != 40 {
		t.Errorf("selfTime = %d, want 40", got)
	}
	if got := selfTime(100, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
}

func TestAnsweredFrac(t *testing.T) {
	var o outcome
	o.add(outcome{Attempted: 3, Failed: 0})
	o.add(outcome{Attempted: 1, Failed: 1}) // one wrong answer or error
	if o.Attempted != 4 || o.Failed != 1 {
		t.Fatalf("outcome = %+v, want 4 attempted, 1 failed", o)
	}
	if got := o.answeredFrac(); got != 0.75 {
		t.Errorf("answeredFrac = %v, want 0.75", got)
	}
	if got := (outcome{}).answeredFrac(); got != 0 {
		t.Errorf("answeredFrac of nothing attempted = %v, want 0", got)
	}
}

func TestNsPerQueryIsMedianPassOverSetSize(t *testing.T) {
	passes := []float64{30e6, 20e6, 22e6} // ns per pass over 100k queries
	if got := nsPerQuery(passes, 100_000); got != 220 {
		t.Errorf("nsPerQuery = %v, want 220", got)
	}
}

func TestCalibScaleIsReferenceOverBracketMean(t *testing.T) {
	ref := time.Duration(calibRef)
	if got := calibScale(ref, ref); got != 1 {
		t.Errorf("calibScale at the reference speed = %v, want 1", got)
	}
	// The host ran the kernel 1.5x and 2.5x slower around a pass: its
	// timings are halved back to the reference speed.
	if got := calibScale(ref*3/2, ref*5/2); got != 0.5 {
		t.Errorf("calibScale of a host twice as slow = %v, want 0.5", got)
	}
}

func TestCalibratorWalksOneCycle(t *testing.T) {
	c := newCalibrator()
	seen := make([]bool, calibWords)
	j := uint32(0)
	for k := 0; k < calibWords; k++ {
		if seen[j] {
			t.Fatalf("walk returned to %d after %d steps, want one cycle of %d", j, k, calibWords)
		}
		seen[j] = true
		j = c.next[j]
	}
	if j != 0 {
		t.Errorf("walk ended at %d after %d steps, want back at 0", j, calibWords)
	}
	if f := c.scale(); !(f > 0) || len(c.runs) != 2 {
		t.Errorf("scale = %v after %d runs, want a positive factor after 2", f, len(c.runs))
	}
}

func TestWindowRateIsMedianOfWindows(t *testing.T) {
	ms := time.Millisecond
	// Windows of 100ms over 300ms: 2, 5 and 1 completions.
	ends := []time.Duration{10 * ms, 50 * ms, 110 * ms, 120 * ms, 130 * ms, 140 * ms, 150 * ms, 250 * ms, 320 * ms}
	if got := windowRate(ends, 512, 300*ms, 100*ms); got != 2*512*10 {
		t.Errorf("windowRate = %v, want %v", got, 2*512*10)
	}
	// A span shorter than a window is the plain rate.
	if got := windowRate(ends[:2], 1, 50*ms, 100*ms); got != 40 {
		t.Errorf("windowRate short span = %v, want 40", got)
	}
}

func TestWindowTailIsMedianOfWindowPercentiles(t *testing.T) {
	ms := time.Millisecond
	var ends []time.Duration
	var lat []float64
	// Three 100ms windows of 100 samples: latencies 1..100, then a burst
	// window at 1000..1099, then 1..100 again.
	for w, base := range []float64{1, 1000, 1} {
		for i := 0; i < 100; i++ {
			ends = append(ends, time.Duration(w)*100*ms+time.Duration(i)*ms/2)
			lat = append(lat, base+float64(i))
		}
	}
	tl, windows := windowTail(ends, lat, 300*ms, 100*ms)
	if windows != 3 || tl.P50 != 50 || tl.P90 != 90 || tl.N != 300 {
		t.Errorf("windowTail = %+v over %d windows, want p50 50, p90 90, N 300 over 3", tl, windows)
	}
	// Windows too thin for a p90 fall back to all samples.
	tl, windows = windowTail(ends[:50], lat[:50], 300*ms, 100*ms)
	if windows != 0 || tl.P50 != 25 {
		t.Errorf("thin windows: %+v over %d windows, want p50 25 over 0", tl, windows)
	}
}

func TestCheckBatchAndSingle(t *testing.T) {
	body := []byte(`{"count":3,"results":[true,false,true]}` + "\n")
	if !checkBatch(body, []bool{true, false, true}) {
		t.Error("matching batch rejected")
	}
	for _, want := range [][]bool{{true, true, true}, {true, false}, {true, false, true, false}} {
		if checkBatch(body, want) {
			t.Errorf("batch accepted against %v", want)
		}
	}
	if checkBatch([]byte(`{"error":"no healthy replicas"}`), []bool{true}) {
		t.Error("error body accepted")
	}
	single := []byte(`{"u":1,"v":2,"reachable":false,"cached":true}`)
	if !checkSingle(single, false) || checkSingle(single, true) {
		t.Error("single answer misread")
	}
}

func TestRouteStage(t *testing.T) {
	h := map[string][]string{"X-Reach-Server-Timing": {"route;dur=1.234, total;dur=1.500"}}
	if got := routeStage(h); got != 1234*time.Microsecond {
		t.Errorf("routeStage = %v, want 1.234ms", got)
	}
	if got := routeStage(nil); got >= 0 {
		t.Errorf("routeStage without header = %v, want negative", got)
	}
}

// TestFrameScannerSplitsAnyway feeds enveloped frames, traced and not,
// in every chunking down to single bytes.
func TestFrameScannerSplitsAnyway(t *testing.T) {
	var stream []byte
	add := func(id uint32, trace string, pairs int) {
		frame := make([]byte, wireproto.RequestSize(pairs))
		n := wireproto.EncodeRequest(frame, make([][2]uint32, pairs))
		env := make([]byte, wireproto.EnvelopeSize+wireproto.TraceSize(len(trace)))
		flags, off := uint32(0), wireproto.EnvelopeSize
		if trace != "" {
			flags = wireproto.EnvFlagTrace
			off += wireproto.PutTrace(env[wireproto.EnvelopeSize:], trace)
		}
		wireproto.PutEnvelope(env, id, flags, uint32(n))
		stream = append(append(stream, env[:off]...), frame[:n]...)
	}
	add(0, "", 0)
	add(7, "b42", 256)
	add(8, "", 3)
	add(9, "s1", 1)
	want := []string{"0:", "7:b42", "8:", "9:s1"}
	for _, step := range []int{1, 3, 13, 17, len(stream)} {
		var fs frameScanner
		var got []string
		for lo := 0; lo < len(stream); lo += step {
			fs.feed(stream[lo:min(lo+step, len(stream))], func(id uint32, trace []byte) {
				got = append(got, string(rune('0'+id))+":"+string(trace))
			})
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: frames %q, want %q", step, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("step %d: frame %d = %q, want %q", step, i, got[i], want[i])
			}
		}
	}
}

// TestMetricCatalogMatchesBenchmarkJSON keeps the metrics this program
// prints and the catalog the benchmark is judged by in step.
func TestMetricCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no catalog: %v", err)
	}
	var cat struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cat); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, got []struct{ Name, Unit string }) {
		if len(defs) != len(got) {
			t.Errorf("%s: program has %d metrics, catalog %d", kind, len(defs), len(got))
			return
		}
		for i, d := range defs {
			if d.name != got[i].Name || d.unit != got[i].Unit {
				t.Errorf("%s[%d]: program %s (%s), catalog %s (%s)", kind, i, d.name, d.unit, got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, cat.EndToEnd)
	check("per_layer", perLayer, cat.PerLayer)
	if len(cat.Workloads) != len(workloads) {
		t.Errorf("catalog has %d workloads, program %d", len(cat.Workloads), len(workloads))
	}
	for _, w := range cat.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("catalog workload %q is not implemented", w.Name)
		}
	}
}

// TestTracedConnSpansFrames serves traced request frames through a
// tracedConn, reading and writing from separate goroutines as the mux
// server does, and expects one replica.mux span per traced frame.
func TestTracedConnSpansFrames(t *testing.T) {
	rec := newRecorder()
	rec.on.Store(true)
	client, srv := net.Pipe()
	defer client.Close()
	tc := &tracedConn{Conn: srv, rec: rec, open: map[uint32]openFrame{}}
	defer tc.Close()

	frame := func(stream uint32, trace string, n int) []byte {
		body := make([]byte, wireproto.RequestSize(n))
		m := wireproto.EncodeRequest(body, make([][2]uint32, n))
		head := make([]byte, wireproto.EnvelopeSize+wireproto.TraceSize(len(trace)))
		flags, off := uint32(0), wireproto.EnvelopeSize
		if trace != "" {
			flags = wireproto.EnvFlagTrace
			off += wireproto.PutTrace(head[wireproto.EnvelopeSize:], trace)
		}
		wireproto.PutEnvelope(head, stream, flags, uint32(m))
		return append(head[:off], body[:m]...)
	}
	const frames = 20
	done, written := make(chan struct{}), make(chan struct{})
	go func() { // the server: a reader feeding a writer
		defer close(done)
		streams := make(chan uint32, frames)
		go func() {
			defer close(written)
			for s := range streams {
				if _, err := tc.Write(frame(s, "", 1)); err != nil {
					t.Error(err)
				}
			}
		}()
		var fs frameScanner
		buf := make([]byte, 100)
		for got := 0; got < frames; {
			n, err := tc.Read(buf)
			if err != nil {
				t.Error(err)
				return
			}
			fs.feed(buf[:n], func(s uint32, _ []byte) { streams <- s; got++ })
		}
		close(streams)
	}()
	go func() { // the client: requests out, responses drained
		for i := 0; i < frames; i++ {
			if _, err := client.Write(frame(uint32(i), "b"+string(rune('a'+i)), 64)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	drain := make([]byte, 4096)
	var fs frameScanner
	for seen := 0; seen < frames; {
		n, err := client.Read(drain)
		if err != nil {
			t.Fatal(err)
		}
		fs.feed(drain[:n], func(uint32, []byte) { seen++ })
	}
	<-done
	<-written // a span is recorded once its response write returns
	spans := rec.byTrace("replica.mux")
	if len(spans) != frames {
		t.Fatalf("%d traced frames made %d spans", frames, len(spans))
	}
	for trace, ss := range spans {
		if len(ss) != 1 || ss[0].End < ss[0].Start || ss[0].Parent != "fleet.route" {
			t.Errorf("trace %s: spans %+v", trace, ss)
		}
	}
}
