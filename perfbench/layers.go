package main

import (
	"math"
	"runtime"

	"perspector/internal/cache"
	"perspector/internal/perf"
	"perspector/internal/suites"
	"perspector/internal/workload"
)

// spanLayers are the layers the benchmark's spans attribute self time
// to; "bench" is the benchmark's own code between calls.
var spanLayers = []string{"bench", "suites", "workload", "uarch", "cache", "metric"}

// layerMetrics derives the per-layer metrics of a traced in-process run
// from its spans. cfg and meas are the workload's config and its six
// stock measurements; plainMs and tracedMs are the untraced and traced
// op medians of the same run, nTraced the traced op count.
func (b *bench) layerMetrics(cfg suites.Config, meas []*perf.SuiteMeasurement, plainMs, tracedMs float64, nTraced int) {
	spans := b.tr.snapshot()
	ss, err := stockSuites(cfg)
	if err != nil {
		b.fail("building suites: %v", err)
		return
	}
	bySuite := func(name, suite string) func(span) bool {
		return func(s span) bool { return s.name == name && s.suite == suite }
	}
	scaled := func(xs []float64, k float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * k
		}
		return out
	}
	setMedian := func(name string, xs []float64) { b.set(name, median(xs), len(xs)) }

	setMedian("suites.build_ms", scaled(perCall(spans, named("suites.build")), 1000))
	workloads := 0
	for _, s := range ss {
		workloads += len(s.Specs)
	}
	b.set("suites.workloads", float64(workloads), len(ss))

	setMedian("workload.compile_s", perPass(spans, named("workload.compile")))
	setMedian("uarch.run_s", perPass(spans, named("uarch.run")))
	setMedian("uarch.machine_get_ms", scaled(perPass(spans, named("uarch.machine_get")), 1000))
	for _, s := range ss {
		setMedian("workload.compile_s."+s.Name, perPass(spans, bySuite("workload.compile", s.Name)))
		var instr uint64
		for _, spec := range s.Specs {
			instr += spec.Instructions
		}
		var rates []float64
		for _, sec := range perPass(spans, bySuite("uarch.run", s.Name)) {
			rates = append(rates, float64(instr)/1e6/sec)
		}
		setMedian("uarch.minstr_per_s."+s.Name, rates)
	}
	b.compileAlloc(ss)
	if sim, err := simCounts(cfg, meas); err != nil {
		b.fail("sim counts: %v", err)
	} else {
		for _, name := range simCounters {
			b.set("uarch.sim."+name, float64(sim[name]), len(meas))
		}
	}

	b.cacheEntries(cfg, ss, meas)
	spans = b.tr.snapshot() // with the entry probe's puts
	setMedian("cache.get_ms", scaled(perCall(spans, named("cache.get")), 1000))
	setMedian("cache.put_ms", scaled(perCall(spans, named("cache.put")), 1000))

	for _, m := range []string{"artifacts", "joint_norm", "cluster", "trend", "coverage", "spread"} {
		setMedian("metric."+m+"_ms", scaled(perPass(spans, named("metric."+m)), 1000))
	}
	for _, kind := range []string{"series", "totals"} {
		setMedian("metric.incr_append_ms."+kind, scaled(perCall(spans, named("metric.incr_append."+kind)), 1000))
		setMedian("metric.incr_scores_ms."+kind, scaled(perCall(spans, named("metric.incr_scores."+kind)), 1000))
	}

	b.layerSelfTimes(spans)
	if nTraced > 0 && plainMs > 0 {
		b.set("trace.overhead_frac", (tracedMs-plainMs)/plainMs, nTraced)
	}
}

// layerSelfTimes charges each traced op's time to layers: a span's self time
// counts in full when it holds the worker pool and over the worker
// count when it is one worker of a fan-out. The layer sums, per op,
// should add up to the op's wall time; trace.accounted_frac says how
// well they do.
func (b *bench) layerSelfTimes(spans []span) {
	self := selfTimes(spans)
	perLayer := map[string][]float64{}
	var accounted []float64
	for top, t := range spans {
		// Stream rounds between rescore_warm's ops are not ops.
		if t.parent != -1 || t.layer != "bench" || t.name == "stream" {
			continue
		}
		sums := map[string]float64{"bench": self[top].Seconds()}
		total := sums["bench"]
		for i, s := range spans {
			if s.parent != top {
				continue
			}
			v := self[i].Seconds()
			if !s.pool {
				v /= float64(b.workers)
			}
			sums[s.layer] += v
			total += v
		}
		for _, l := range spanLayers {
			perLayer[l] = append(perLayer[l], 1000*sums[l])
		}
		accounted = append(accounted, total/(t.end-t.start).Seconds())
	}
	for _, l := range spanLayers {
		b.set(l+".self_ms", median(perLayer[l]), len(perLayer[l]))
	}
	acc := median(accounted)
	b.set("trace.accounted_frac", acc, len(accounted))
	if b.workload == "compare_cold" {
		b.op()
		if math.Abs(acc-1) > accountBound {
			b.fail("layer self times account for %.3f of the compare's wall time, outside 1±%.2f", acc, accountBound)
		}
	}
}

// accountBound is how far the layer self times of a traced compare_cold
// op may sum from the op's wall time (as a share of it) before the
// traced run is invalid.
const accountBound = 0.15

// compileAlloc measures the heap bytes workload.Compile allocates for
// every workload of the six suites, compiled one after another.
func (b *bench) compileAlloc(ss []suites.Suite) {
	var m0, m1 runtime.MemStats
	n := 0
	runtime.ReadMemStats(&m0)
	for _, s := range ss {
		for _, spec := range s.Specs {
			if _, err := workload.Compile(spec); err != nil {
				b.fail("compiling %s/%s: %v", s.Name, spec.Name, err)
				return
			}
			n++
		}
	}
	runtime.ReadMemStats(&m1)
	b.set("workload.compile_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), n)
}

// cacheEntries writes the measurements to a fresh cache through traced
// puts and reports the mean entry size.
func (b *bench) cacheEntries(cfg suites.Config, ss []suites.Suite, meas []*perf.SuiteMeasurement) {
	dir, err := b.subdir("entries-")
	if err != nil {
		b.fail("%v", err)
		return
	}
	st, err := cache.Open(dir)
	if err != nil {
		b.fail("%v", err)
		return
	}
	for i, m := range meas {
		sp := b.tr.begin(-1, "cache", "cache.put", m.Suite, true)
		err := st.Put(cache.Key(ss[i], cfg), m)
		sp.end()
		if err != nil {
			b.fail("cache put: %v", err)
			return
		}
	}
	b.set("cache.entry_kb", float64(dirBytes(dir))/1024/float64(len(meas)), len(meas))
}
