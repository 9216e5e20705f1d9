package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	reach "repro"
	"repro/internal/fleet"
	"repro/internal/mux"
	"repro/internal/server"
)

const replicas = 2

// stack is the routed serving stack of the mixed-zipf workload: one DL
// snapshot, mmap-loaded by two replicas with default server.Config, each
// serving HTTP and mux on loopback, fronted by a fleet router with
// default fleet.Config.
type stack struct {
	oracles     []*reach.Oracle
	servers     []*server.Server
	muxSrvs     []*mux.Server
	muxAddrs    []string
	httpSrvs    []*http.Server
	router      *fleet.Router
	url         string
	fingerprint string
	snapPath    string

	// Set-up timings. setup spans NewGraph to a healthy fleet.
	setup, build, save, load, enroll time.Duration
	observePrecompute                time.Duration
}

// startStack builds the stack. With rec set, replica handlers, replica
// mux connections and the router handler record spans while rec is on.
func startStack(f *fixture, dir string, rec *recorder) (st *stack, err error) {
	st = &stack{snapPath: filepath.Join(dir, "fixture.snap")}
	defer func() {
		if err != nil {
			st.stop()
		}
	}()
	t0 := time.Now()
	g, err := f.newGraph()
	if err != nil {
		return nil, err
	}
	built, err := reach.Build(g, reach.MethodDL, reach.Options{})
	if err != nil {
		return nil, err
	}
	st.build = time.Since(t0)
	st.observePrecompute = built.Observers().PrecomputeTime()
	t1 := time.Now()
	if err := built.SaveFile(st.snapPath); err != nil {
		return nil, err
	}
	st.save = time.Since(t1)

	var bases []string
	for i := 0; i < replicas; i++ {
		t2 := time.Now()
		o, err := reach.Load(st.snapPath)
		if err != nil {
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		st.load += time.Since(t2)
		st.oracles = append(st.oracles, o)
		muxLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		st.muxAddrs = append(st.muxAddrs, muxLn.Addr().String())
		s := server.New(o.Graph(), o, server.Config{OrigIDs: o.Graph().OrigIDs(), MuxAddr: muxLn.Addr().String()})
		st.servers = append(st.servers, s)
		st.fingerprint = server.FingerprintString(o.Graph().Fingerprint())
		ms := s.NewMuxServer(func(string, ...any) {})
		st.muxSrvs = append(st.muxSrvs, ms)
		var h http.Handler = s.Handler()
		if rec != nil {
			muxLn = tracedListener{Listener: muxLn, rec: rec}
			h = tracedHandler(rec, "replica.http", "fleet.route", h)
		}
		go ms.Serve(muxLn)
		url, err := serveHTTP(st, h)
		if err != nil {
			return nil, err
		}
		bases = append(bases, url)
	}
	st.load /= replicas

	t3 := time.Now()
	st.router, err = fleet.New(context.Background(), fleet.Config{
		Replicas: bases,
		Logf:     func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	var h http.Handler = st.router.Handler()
	if rec != nil {
		h = tracedHandler(rec, "fleet.edge", "client", h)
	}
	if st.url, err = serveHTTP(st, h); err != nil {
		return nil, err
	}
	if err := waitHealthy(st.url, replicas, 10*time.Second); err != nil {
		return nil, err
	}
	st.enroll = time.Since(t3)
	st.setup = time.Since(t0)
	return st, nil
}

func serveHTTP(st *stack, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	st.httpSrvs = append(st.httpSrvs, hs)
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// waitHealthy polls the router's healthz until it reports want healthy
// replicas. It polls every millisecond so the wait adds little to setup_s.
func waitHealthy(url string, want int, limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for {
		resp, err := c.Get(url + "/v1/healthz")
		if err == nil {
			var hz fleet.RouterHealthz
			err = json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK && hz.ReplicasHealthy == want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not healthy after %s: %v", limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop tears the stack down and waits for its servers to exit.
func (st *stack) stop() {
	for _, hs := range st.httpSrvs {
		hs.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for _, ms := range st.muxSrvs {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // force-close: the router, the only client, is gone
		ms.Shutdown(ctx)
	}
	for _, s := range st.servers {
		s.Close()
	}
	for _, o := range st.oracles {
		o.Close()
	}
	os.Remove(st.snapPath)
}
