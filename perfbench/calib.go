package main

import (
	"sort"
	"sync"
	"time"
)

// The host this benchmark runs on is a few cores of a shared machine,
// and its speed drifts: within a minute the same compare can take half
// as long again, with no change in the program and almost no CPU stolen
// from the process. A fixed reference kernel, timed through the run
// while nothing else of the run works, slows down with the host, so
// times are reported at a fixed reference speed: each raw time ×
// refKernelMs / the median of the kernel times nearest to it, and then
// the median of those. The kernel is the benchmark's own code, so no
// change to the program moves it; the raw medians and the kernel's
// median are printed beside the scaled ones.
const (
	// refKernelMs is the kernel's median time on the 2-CPU host the
	// benchmark was written on, with two goroutines: the reference
	// speed the scaled times are expressed at.
	refKernelMs = 75.0
	// calibShare is the share of a run's time spent in the kernel.
	calibShare = 0.08
	// kernelSteps is the kernel's work per worker and sample.
	kernelSteps = 1_200_000
	// nearest is how many kernel samples, the nearest in time, scale
	// one raw time.
	nearest = 5
)

// timing is one raw time and when it was taken.
type timing struct {
	at    time.Time // middle of the timed interval
	raw   float64
	group string // the stock suite of a service_open job; empty elsewhere
}

// timingAt makes the timing of an interval from start to now, in ms.
func timingAt(start time.Time) timing {
	d := time.Since(start)
	return timing{at: start.Add(d / 2), raw: millis(d)}
}

// raws returns the raw times.
func raws(ts []timing) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = t.raw
	}
	return out
}

// calibrator times the reference kernel through a run.
type calibrator struct {
	workers int
	state   []*kernelState // one per worker, built at the first sample
	times   []timing       // ms per kernel run
	spent   time.Duration
	sink    uint64 // keeps the kernel's result live
}

// sample runs the kernel once on every worker and records its wall time.
func (c *calibrator) sample() {
	if c.state == nil {
		c.state = make([]*kernelState, c.workers)
		for w := range c.state {
			c.state[w] = newKernelState(uint64(w) + 1)
		}
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	out := make([]uint64, c.workers)
	for w := range out {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out[w] = c.state[w].run()
		}(w)
	}
	wg.Wait()
	tm := timingAt(t0)
	for _, v := range out {
		c.sink += v
	}
	c.spent += time.Since(t0)
	c.times = append(c.times, tm)
}

// keepUp samples until the kernel has had its share of the time since
// start, and at least once.
func (c *calibrator) keepUp(start time.Time) {
	for len(c.times) == 0 || float64(c.spent) < calibShare*float64(time.Since(start)) {
		c.sample()
	}
}

// scale returns the times scaled to the reference speed, each by the
// median of the nearest kernel samples to it.
func (c *calibrator) scale(ts []timing) []float64 {
	out := make([]float64, len(ts))
	byDist := append([]timing(nil), c.times...)
	for i, t := range ts {
		dist := func(k timing) time.Duration { return k.at.Sub(t.at).Abs() }
		sort.Slice(byDist, func(a, b int) bool { return dist(byDist[a]) < dist(byDist[b]) })
		near := byDist[:min(nearest, len(byDist))]
		out[i] = t.raw * refKernelMs / median(raws(near))
	}
	return out
}

// kernelState is one worker's reference kernel: a miniature of the
// simulator's hot path. A synthetic address stream (sequential, local
// and scattered) runs through a two-level set-associative LRU tag
// store, and every eighth step also follows a dependent load chain over
// a table larger than the host's mid-level caches. It stresses what the
// simulator stresses: branches, cache-resident tables and memory
// latency.
type kernelState struct {
	l1, l2 []uint64
	chain  []uint32 // one random cycle through all its slots
	seed   uint64
}

const (
	l1Sets, l1Ways = 64, 4
	l2Sets, l2Ways = 4096, 8
	chainLen       = 1 << 21 // 8 MiB
)

func newKernelState(seed uint64) *kernelState {
	k := &kernelState{
		l1:    make([]uint64, l1Sets*l1Ways),
		l2:    make([]uint64, l2Sets*l2Ways),
		chain: make([]uint32, chainLen),
		seed:  seed*0x9e3779b97f4a7c15 | 1,
	}
	for i := range k.chain {
		k.chain[i] = uint32(i)
	}
	// Sattolo's shuffle leaves a single cycle, so the chain visits
	// every slot.
	x := k.seed
	for i := chainLen - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		k.chain[i], k.chain[j] = k.chain[j], k.chain[i]
	}
	return k
}

// run performs kernelSteps steps from empty tag stores; the same state
// always does the same work.
func (k *kernelState) run() uint64 {
	clear(k.l1)
	clear(k.l2)
	x := k.seed
	var hits, base uint64
	var p uint32
	for i := 0; i < kernelSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var addr uint64
		switch x & 3 {
		case 0:
			base += 64
			addr = base
		case 1:
			addr = (x >> 8) & (1<<24 - 1)
		default:
			addr = (base + (x>>20)&4095) & (1<<24 - 1)
		}
		if i&7 == 0 {
			p = k.chain[p]
			addr ^= uint64(p)
		}
		line := addr >> 6
		if lruTouch(k.l1[(line%l1Sets)*l1Ways:][:l1Ways], line+1) {
			hits++
		} else if lruTouch(k.l2[(line%l2Sets)*l2Ways:][:l2Ways], line+1) {
			hits += 2
		}
	}
	return hits + uint64(p)
}

// lruTouch looks tag up in one set kept in most-recent-first order,
// moves or inserts it at the front and reports whether it was there.
func lruTouch(set []uint64, tag uint64) bool {
	for k, t := range set {
		if t == tag {
			copy(set[1:k+1], set[:k])
			set[0] = tag
			return true
		}
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = tag
	return false
}
