// Command perfbench is the repository's benchmark. Each invocation runs
// one named workload in its own process against the public API of the
// oracle and the routed serving stack, checks every answer against
// breadth-first search, and prints its metrics as one JSON object on the
// last line of standard output:
//
//	go run . -workload mixed-zipf -seed 1 -seconds 20 -trace 0
//
// -trace 0 prints the end-to-end metrics; -trace 1 prints the per-layer
// metrics, measured by spans recorded around each layer's public calls
// and by replays of each layer at the run's cache state. The metric and
// workload catalog, with bounds, is BENCHMARK.json at the repository
// root; run.py builds this package and runs it.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef is one published metric.
type metricDef struct{ name, unit string }

// endToEnd are printed by every workload with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"index_ints", "count"},
	{"answered_frac", "frac"},
	{"pairs_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p90_ms", "ms"},
	{"singles_per_s", "1/s"},
	{"single_p50_us", "us"},
	{"single_p90_us", "us"},
	{"equal_ns_per_query", "ns"},
	{"random_ns_per_query", "ns"},
}

// perLayer are printed by every workload with -trace 1. A layer the
// workload does not run reads 0.
var perLayer = []metricDef{
	{"core.build_s", "s"},
	{"observe.build_ms", "ms"},
	{"snapshot.save_ms", "ms"},
	{"snapshot.load_ms", "ms"},
	{"fleet.enroll_ms", "ms"},
	{"hoplabel.avg_lout", "count"},
	{"hoplabel.avg_lin", "count"},
	{"observe.decided_frac.equal", "frac"},
	{"observe.decided_frac.random", "frac"},
	{"observe.query_ns", "ns"},
	{"hoplabel.probe_ns", "ns"},
	{"hoplabel.entries_per_probe", "count"},
	{"server.batch_us", "us"},
	{"server.cache_hit_frac", "frac"},
	{"server.cache_lookup_ns", "ns"},
	{"server.index_probe_ns", "ns"},
	{"server.single_us", "us"},
	{"wireproto.encode_ns_per_pair", "ns"},
	{"wireproto.decode_ns_per_pair", "ns"},
	{"mux.batch_self_us", "us"},
	{"mux.bytes_per_pair", "bytes"},
	{"fleet.edge_decode_us", "us"},
	{"fleet.edge_encode_us", "us"},
	{"fleet.route_self_us", "us"},
	{"fleet.single_route_self_us", "us"},
	{"runtime.alloc_bytes_per_pair", "bytes"},
	{"runtime.gc_cpu_frac", "frac"},
	{"process.cpu_us_per_pair", "us"},
	{"loadgen.prepare_us", "us"},
	{"loadgen.check_us", "us"},
	{"loadgen.batch_samples", "count"},
	{"loadgen.single_samples", "count"},
	{"unattributed_us", "us"},
	{"trace.overhead_frac", "frac"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"oracle-paper": runOraclePaper,
	"mixed-zipf":   runRouted,
}

// metrics collects measured values by name.
type metrics map[string]float64

func (m metrics) set(name string, v float64) { m[name] = v }

// run is one invocation: its arguments, fixture and findings.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	dir      string
	fix      *fixture
	m        metrics
	out      outcome
	rec      *recorder
	notes    []string // human-readable lines printed before the result
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	var r run
	flag.StringVar(&r.workload, "workload", "", "workload to run: oracle-paper or mixed-zipf")
	flag.Int64Var(&r.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&r.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&r.dir, "dir", ".bench_build", "directory for the run's snapshot file and span dump")
	flag.Parse()
	r.traced = *trace == 1
	if err := r.main(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func (r *run) main() error {
	runner, ok := workloads[r.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", r.workload)
	}
	if r.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(r.dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	r.dir = work
	if r.fix, err = loadFixture(); err != nil {
		return err
	}
	r.m = metrics{}
	if r.traced {
		r.rec = newRecorder()
	}
	steal0, total0 := cpuSteal()
	if err := runner(r); err != nil {
		return err
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		r.notef("steal: %.1f%% of the machine's CPU time went to other tenants during the run", 100*(steal1-steal0)/(total1-total0))
	}
	r.m.set("peak_rss_mb", peakRSSMB())
	r.m.set("answered_frac", r.out.answeredFrac())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.notef("memory: peak RSS %.1f MiB, heap in use %.1f MiB, heap from OS %.1f MiB, %d GCs",
		r.m["peak_rss_mb"], float64(ms.HeapInuse)/(1<<20), float64(ms.HeapSys)/(1<<20), ms.NumGC)

	env := environment()
	env["workload"], env["seed"], env["seconds"], env["trace"] = r.workload, r.seed, r.seconds, r.traced
	if r.rec != nil {
		path := filepath.Join(filepath.Dir(work), "spans-"+r.workload+".jsonl")
		if err := r.rec.dump(path, env); err != nil {
			return err
		}
		r.notef("spans: %d written to %s", len(r.rec.spans), path)
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	out := map[string]any{}
	for _, d := range defs {
		v, ok := r.m[d.name]
		if !ok {
			v = 0 // the layer is not on this workload's path
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no value", d.name)
		}
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	envLine, _ := json.Marshal(env)
	fmt.Println("env", string(envLine))
	for _, n := range r.notes {
		fmt.Println(n)
	}
	res, err := json.Marshal(map[string]any{
		"correct":   r.out.Attempted > 0 && r.out.Failed == 0,
		"attempted": r.out.Attempted,
		"failed":    r.out.Failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(res))
	return nil
}

// environment records what the numbers were measured on.
func environment() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuSteal returns the machine-wide steal and total CPU ticks from
// /proc/stat, or zeros when it cannot be read.
func cpuSteal() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		var v float64
		fmt.Sscan(f, &v)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}
