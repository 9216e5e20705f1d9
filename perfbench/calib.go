package main

import (
	"math/rand"
	"sync"
	"time"
)

// calibrator is a fixed memory-bound kernel timed between the oracle's
// passes: a dependent walk along one random cycle through a 4 MiB table,
// so every step waits on a cache miss, as a label probe does.
//
// On a shared host the oracle's CPU time per query drifts by 10-30%
// over minutes as other tenants contend for the last-level cache and
// memory; the thread CPU clock excludes steal but not that. The kernel
// slows down with it, and it is the benchmark's own code, so no change
// to the program moves it. Each oracle timing is therefore scaled by
// calibRef over the kernel's time around it, and reads as CPU time on
// the host at the kernel's reference speed. On the machine the bounds
// were set on this halved the drift of ns per query between 16 s
// windows over 15 minutes (range 13% → 8%); notes print the unscaled
// medians and the kernel's own time.
type calibrator struct {
	next []uint32
	pos  uint32
	prev time.Duration // the last run's time
	runs []float64     // every run's time in ns
}

const (
	calibWords = 1 << 20 // cycle length: 4 MiB of uint32
	calibSteps = 1 << 13 // steps per run, ≈1.3 ms
	// calibRef is the kernel's median run time on the machine the
	// bounds were set on: a scale of 1 leaves a timing as measured.
	calibRef = 1.3e6 // ns
)

// calibCycle is the kernel's table, built once per process from a fixed
// seed, so every run of the benchmark walks the same cycle.
var calibCycle = sync.OnceValue(func() []uint32 {
	perm := rand.New(rand.NewSource(1)).Perm(calibWords)
	next := make([]uint32, calibWords)
	for i, v := range perm {
		next[v] = uint32(perm[(i+1)%len(perm)])
	}
	return next
})

// newCalibrator times a first run of the kernel. The caller holds
// runtime.LockOSThread for as long as it uses the calibrator.
func newCalibrator() *calibrator {
	c := &calibrator{next: calibCycle()}
	c.prev = c.run()
	return c
}

// run times calibSteps steps of the walk in thread CPU time.
func (c *calibrator) run() time.Duration {
	t0 := threadCPU()
	j := c.pos
	for k := 0; k < calibSteps; k++ {
		j = c.next[j]
	}
	d := threadCPU() - t0
	c.pos = j
	c.runs = append(c.runs, float64(d))
	return d
}

// scale runs the kernel once more and returns the factor for the
// timings taken since the previous run: calibRef over the mean of the
// two runs that bracket them.
func (c *calibrator) scale() float64 {
	cur := c.run()
	f := calibScale(c.prev, cur)
	c.prev = cur
	return f
}

// calibScale is calibRef over the mean of two kernel times.
func calibScale(before, after time.Duration) float64 {
	return calibRef / (float64(before+after) / 2)
}
