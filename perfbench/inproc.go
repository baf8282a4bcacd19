package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"perspector"
	"perspector/internal/cache"
	"perspector/internal/cli"
	"perspector/internal/mat"
	"perspector/internal/metric"
	"perspector/internal/par"
	"perspector/internal/perf"
	"perspector/internal/suites"
	"perspector/internal/uarch"
	"perspector/internal/workload"
)

// paperConfig is the paper's measurement setup (400k instructions, 100
// samples per workload) under the run's seed.
func paperConfig(seed uint64) suites.Config {
	cfg := suites.DefaultConfig()
	cfg.Seed = seed
	return cfg
}

// stockSuites builds the six stock suites in paper order.
func stockSuites(cfg suites.Config) ([]suites.Suite, error) {
	names := suites.StockNames()
	ss := make([]suites.Suite, len(names))
	for i, name := range names {
		s, err := suites.ByName(name, cfg)
		if err != nil {
			return nil, err
		}
		ss[i] = s
	}
	return ss, nil
}

// cliFlags are the flags `perspector compare` would parse for cfg.
func cliFlags(cfg suites.Config, cacheDir string, workers int) *cli.Flags {
	return &cli.Flags{
		Instr:    cfg.Instructions,
		Samples:  cfg.Samples,
		Seed:     cfg.Seed,
		Workers:  workers,
		CacheDir: cacheDir,
	}
}

// cliCompare is one `perspector compare` of the six stock suites through
// the entrypoints the CLI uses: a driver over the cache directory (empty
// for no cache), the parallel cached measure, and the joint score.
func cliCompare(cfg suites.Config, cacheDir string, workers int) ([]*perf.SuiteMeasurement, []metric.Scores, error) {
	d, err := cliFlags(cfg, cacheDir, workers).NewDriver()
	if err != nil {
		return nil, nil, err
	}
	defer d.Close()
	ss, err := stockSuites(cfg)
	if err != nil {
		return nil, nil, err
	}
	ms, err := d.MeasureSuites(ss)
	if err != nil {
		return nil, nil, err
	}
	scores, err := perspector.CompareContext(d.Context(), ms, perspector.DefaultOptions())
	return ms, scores, err
}

// tracedCompare is cliCompare split into the public calls of each layer,
// each wrapped in a span. It must reproduce cliCompare bit for bit.
func (b *bench) tracedCompare(opName string, cfg suites.Config, cacheDir string) ([]*perf.SuiteMeasurement, []metric.Scores, error) {
	b.tr.nextPass()
	op := b.tr.begin(-1, "bench", opName, "", true)
	defer op.end()
	var st *cache.Store
	if cacheDir != "" {
		sp := b.tr.begin(op.id(), "cache", "cache.open", "", true)
		var err error
		st, err = cache.Open(cacheDir)
		sp.end()
		if err != nil {
			return nil, nil, err
		}
	}
	sp := b.tr.begin(op.id(), "suites", "suites.build", "", true)
	ss, err := stockSuites(cfg)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	ms, err := b.tracedMeasure(op.id(), cfg, ss, st)
	if err != nil {
		return nil, nil, err
	}
	scores, err := b.tracedScore(op.id(), ms)
	return ms, scores, err
}

// tracedMeasure measures the suites as source.Caching over
// suites.RunContext does — cache lookup, then every workload compiled
// and run on a pooled machine, then cache store — with the workloads of
// all suites fanned out over one worker pool. A nil store skips the
// cache.
func (b *bench) tracedMeasure(parent int, cfg suites.Config, ss []suites.Suite, st *cache.Store) ([]*perf.SuiteMeasurement, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ms := make([]*perf.SuiteMeasurement, len(ss))
	keys := make([]string, len(ss))
	type item struct{ s, w int }
	var items []item
	for i, s := range ss {
		if st != nil {
			sp := b.tr.begin(parent, "cache", "cache.key", s.Name, true)
			keys[i] = cache.Key(s, cfg)
			sp.end()
			sp = b.tr.begin(parent, "cache", "cache.get", s.Name, true)
			m, ok := st.Get(keys[i])
			sp.end()
			if ok {
				ms[i] = m
				continue
			}
		}
		ms[i] = &perf.SuiteMeasurement{Suite: s.Name, Workloads: make([]perf.Measurement, len(s.Specs))}
		for w := range s.Specs {
			items = append(items, item{i, w})
		}
	}
	err := par.DoErrCtx(context.Background(), len(items), func(ctx context.Context, _, k int) error {
		it := items[k]
		name := ss[it.s].Name
		spec := ss[it.s].Specs[it.w]
		sp := b.tr.begin(parent, "workload", "workload.compile", name, false)
		prog, err := workload.Compile(spec)
		sp.end()
		if err != nil {
			return err
		}
		mc := cfg.Machine
		mc.SampleInterval = spec.Instructions / uint64(cfg.Samples)
		if mc.SampleInterval == 0 {
			mc.SampleInterval = 1
		}
		mc.CountersOnly = cfg.TotalsOnly
		sp = b.tr.begin(parent, "uarch", "uarch.machine_get", name, false)
		m, err := uarch.DefaultMachinePool.Get(mc)
		sp.end()
		if err != nil {
			return err
		}
		sp = b.tr.begin(parent, "uarch", "uarch.run", name, false)
		meas, err := m.RunContext(ctx, prog, spec.Instructions)
		sp.end()
		uarch.DefaultMachinePool.Put(m)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", name, spec.Name, err)
		}
		ms[it.s].Workloads[it.w] = *meas
		return nil
	})
	if err != nil {
		return nil, err
	}
	if st != nil {
		for i := range ss {
			sp := b.tr.begin(parent, "cache", "cache.put", ss[i].Name, true)
			err := st.Put(keys[i], ms[i])
			sp.end()
			if err != nil {
				return nil, err
			}
		}
	}
	return ms, nil
}

// tracedScore is metric.ScoreSuites split into its public steps:
// artifacts, joint normalization, then each registered metric's Compute
// per suite (suites one after another; each metric fans out inside).
func (b *bench) tracedScore(parent int, ms []*perf.SuiteMeasurement) ([]metric.Scores, error) {
	opts := perspector.DefaultOptions()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	sp := b.tr.begin(parent, "metric", "metric.artifacts", "", true)
	arts := make([]*metric.Artifacts, len(ms))
	for i, sm := range ms {
		arts[i] = metric.NewArtifacts(sm, opts)
	}
	sp.end()
	sp = b.tr.begin(parent, "metric", "metric.joint_norm", "", true)
	raw := make([]*mat.Matrix, len(arts))
	for i, a := range arts {
		raw[i] = a.Raw()
	}
	normed, err := metric.JointNormalize(raw)
	sp.end()
	if err != nil {
		return nil, err
	}
	out := make([]metric.Scores, len(arts))
	ctx := context.Background()
	for i, a := range arts {
		a.JointNorm = normed[i]
		out[i].Suite = a.Meas.Suite
		hasSeries := a.HasSeries()
		for _, m := range metric.DefaultRegistry().Metrics() {
			if m.Requires().NeedsSeries && !hasSeries {
				continue
			}
			sp := b.tr.begin(parent, "metric", "metric."+m.Name(), a.Meas.Suite, true)
			v, err := m.Compute(ctx, a)
			sp.end()
			if err != nil {
				return nil, err
			}
			if err := setScore(&out[i], m.Name(), v); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// setScore stores a metric value into its named slot of Scores.
func setScore(s *metric.Scores, name string, v float64) error {
	switch name {
	case metric.MetricCluster:
		s.Cluster = v
	case metric.MetricTrend:
		s.Trend = v
	case metric.MetricCoverage:
		s.Coverage = v
	case metric.MetricSpread:
		s.Spread = v
	default:
		return fmt.Errorf("metric %q has no slot in Scores", name)
	}
	return nil
}

// runCompareCold: the six stock suites in one cold compare per op, each
// op starting from an empty measurement-cache directory, one op at a
// time.
func runCompareCold(b *bench) error {
	par.SetWorkers(b.workers)
	cfg := paperConfig(b.seed)
	// Set-up is what a CLI run does before measuring: open an empty
	// cache and build the six suites. Ten repetitions run before every op.
	// Making the empty directory is the benchmark's work, not timed.
	var dir string
	setup := &setupTimer{prep: func() (err error) {
		dir, err = b.subdir("setup-")
		return err
	}, fn: func() error {
		d, err := cliFlags(cfg, dir, b.workers).NewDriver()
		if err != nil {
			return err
		}
		_, err = stockSuites(cfg)
		d.Close()
		return err
	}}

	var ref []metric.Scores
	var refMeas []*perf.SuiteMeasurement
	plain, traced := b.opLoop(3, func(int) error { return setup.run(10) }, func(n int, traced bool) error {
		dir := filepath.Join(b.dir, fmt.Sprintf("cache-%d", n))
		var ms []*perf.SuiteMeasurement
		var scores []metric.Scores
		var err error
		if traced {
			ms, scores, err = b.tracedCompare("op", cfg, dir)
		} else {
			ms, scores, err = cliCompare(cfg, dir, b.workers)
		}
		switch {
		case err != nil:
			return err
		case ref == nil:
			ref, refMeas = scores, ms
		case !sameScores(scores, ref):
			return fmt.Errorf("scores differ from op 0")
		case !sameMeasurements(ms, refMeas):
			return fmt.Errorf("measurements differ from op 0")
		}
		return nil
	})
	if ref == nil {
		return fmt.Errorf("no compare op succeeded")
	}
	b.setTimes(setup.times)
	b.checkGolden(ref, refMeas, cfg)
	b.note("op = one cold six-suite compare (paper config, %d workers, empty cache)", b.workers)
	if b.tr != nil {
		b.layerMetrics(cfg, refMeas, median(plain), median(traced), len(traced))
	}
	return nil
}

// opLoop runs op closed-loop, one at a time, for the run's measurement
// time (and at least min times), and records the end-to-end metrics of
// the untraced ops: median wall time at the reference speed and the
// highest of the ops' peak RSS. between(n) runs untimed before op n, and so does
// the reference kernel, for its share of the time. In a traced run
// every second op is traced; the traced and untraced wall times are
// returned for the tracing-overhead figure.
func (b *bench) opLoop(min int, between func(n int) error, op func(n int, traced bool) error) (plain, traced []float64) {
	var rss []float64
	resetOK := true
	cal := b.cal
	start := time.Now()
	for n := 0; b.until(start, n, min); n++ {
		// The set-ups and the op start from a collected heap handed back
		// to the OS, as in a fresh CLI process: the runtime is not still
		// sweeping the last op's garbage while they are timed, and the
		// op's peak RSS does not depend on what earlier ops left behind.
		freeHeap()
		if err := between(n); err != nil {
			b.fail("before op %d: %v", n, err)
			break
		}
		cal.keepUp(start)
		b.op()
		tr := b.tr != nil && n%2 == 1
		freeHeap()
		resetOK = resetPeak("self") && resetOK
		t0 := time.Now()
		err := op(n, tr)
		tm := timingAt(t0)
		if err != nil {
			b.fail("op %d: %v", n, err)
			continue
		}
		if tr {
			traced = append(traced, tm.raw)
			continue
		}
		plain = append(plain, tm.raw)
		b.ops = append(b.ops, tm)
		mb, err := peakRSSMB("self")
		if err != nil {
			b.fail("reading peak RSS: %v", err)
			continue
		}
		rss = append(rss, mb)
	}
	cal.sample()
	if !resetOK {
		b.note("the peak-RSS account could not be reset per op: peak_rss_mb is the peak since start")
	}
	b.set("peak_rss_mb", quantile(rss, 1), len(rss))
	return plain, traced
}

// generateInputs measures the six stock suites once with no cache: the
// inputs of the warm workloads. Its time is reported, not counted as
// set-up. In a traced run it goes through the traced decomposition.
func (b *bench) generateInputs(cfg suites.Config) ([]*perf.SuiteMeasurement, []metric.Scores, error) {
	t0 := time.Now()
	var ms []*perf.SuiteMeasurement
	var scores []metric.Scores
	var err error
	if b.tr != nil {
		ms, scores, err = b.tracedCompare("inputs", cfg, "")
	} else {
		ms, scores, err = cliCompare(cfg, "", b.workers)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("generating inputs: %w", err)
	}
	b.note("inputs: six stock suites simulated in %.3f s (not part of set-up)", time.Since(t0).Seconds())
	b.checkGolden(scores, ms, cfg)
	return ms, scores, nil
}

// runRescoreWarm: the six stock measurements sit in a measurement cache
// written during set-up; each op opens the cache, reads the six entries
// and scores them jointly. Between ops, untimed, one round of a chunk
// stream runs on a live IncrementalRun over the same measurements, so
// batch reads sit beside incremental writes; the traced pass times the
// stream's calls as the metric.incr_* layer metrics.
func runRescoreWarm(b *bench) error {
	par.SetWorkers(b.workers)
	cfg := paperConfig(b.seed)
	ms0, ref, err := b.generateInputs(cfg)
	if err != nil {
		return err
	}
	ss, err := stockSuites(cfg)
	if err != nil {
		return err
	}
	keys := make([]string, len(ss))
	for i, s := range ss {
		keys[i] = cache.Key(s, cfg)
	}
	// Set-up writes the six entries into a fresh cache; it runs before
	// every fourth op and the ops read the latest cache. Making the
	// empty directory is the benchmark's work, not timed.
	var dir string
	setup := &setupTimer{prep: func() (err error) {
		dir, err = b.subdir("cache-")
		return err
	}, fn: func() error {
		b.tr.nextPass()
		st, err := cache.Open(dir)
		if err != nil {
			return err
		}
		for i := range ms0 {
			sp := b.tr.begin(-1, "cache", "cache.put", ss[i].Name, true)
			err := st.Put(keys[i], ms0[i])
			sp.end()
			if err != nil {
				return err
			}
		}
		return nil
	}}
	ctx := context.Background()
	opts := perspector.DefaultOptions()
	stream := &chunkStream{gen: newChunkGen(b.seed, ms0), base: ms0, opts: opts}
	between := func(n int) error {
		if err := stream.round(ctx, b); err != nil {
			return err
		}
		if n%4 == 0 {
			return setup.run(1)
		}
		return nil
	}
	plain, traced := b.opLoop(5, between, func(n int, traced bool) error {
		scores, err := b.warmCompare(dir, keys, traced)
		if err == nil && !sameScores(scores, ref) {
			err = fmt.Errorf("warm scores differ from the cold compare's")
		}
		return err
	})
	stream.finish(ctx, b)
	b.setTimes(setup.times)
	b.note("op = one warm compare: open the cache, read six entries, score jointly")
	b.note("between ops: %d stream rounds of 12 chunks (per suite: series-only chunk + Scores, totals-carrying chunk + Scores) in streams of %d rounds",
		stream.rounds, streamRounds)
	if b.tr != nil {
		b.layerMetrics(cfg, ms0, median(plain), median(traced), len(traced))
	}
	return nil
}

// warmCompare reads the six measurements from the cache at dir and
// scores them jointly, traced or not.
func (b *bench) warmCompare(dir string, keys []string, traced bool) ([]metric.Scores, error) {
	var tr *tracer
	if traced {
		tr = b.tr
	}
	tr.nextPass()
	op := tr.begin(-1, "bench", "op", "", true)
	defer op.end()
	sp := tr.begin(op.id(), "cache", "cache.open", "", true)
	st, err := cache.Open(dir)
	sp.end()
	if err != nil {
		return nil, err
	}
	ms := make([]*perf.SuiteMeasurement, len(keys))
	for i, k := range keys {
		sp := tr.begin(op.id(), "cache", "cache.get", "", true)
		m, ok := st.Get(k)
		sp.end()
		if !ok {
			return nil, fmt.Errorf("cache miss on entry %d", i)
		}
		ms[i] = m
	}
	if traced {
		return b.tracedScore(op.id(), ms)
	}
	return perspector.CompareContext(context.Background(), ms, perspector.DefaultOptions())
}

// streamRounds is how many rounds one IncrementalRun takes before the
// run is checked against a batch score and replaced by a fresh one,
// which keeps the stream's size, and so its cost per chunk, steady.
const streamRounds = 8

// chunkStream is the chunk stream rescore_warm runs between its ops.
type chunkStream struct {
	gen    *chunkGen
	base   []*perf.SuiteMeasurement
	opts   metric.Options
	run    *metric.IncrementalRun
	last   []metric.Scores
	left   int // rounds before the current run is checked and replaced
	rounds int // rounds run in all
}

// round applies one round to the stream, first checking and replacing
// a run that has had its rounds, or opening the first one. In a traced
// run the round's calls are spans.
func (c *chunkStream) round(ctx context.Context, b *bench) error {
	if c.left == 0 {
		c.finish(ctx, b)
		r, err := metric.NewIncrementalRun(cloneAll(c.base), c.opts, nil)
		if err != nil {
			return fmt.Errorf("opening a stream: %w", err)
		}
		if _, err := r.Scores(ctx); err != nil {
			return fmt.Errorf("opening a stream: %w", err)
		}
		c.run, c.last, c.left = r, nil, streamRounds
	}
	var err error
	c.last, err = appendRound(ctx, c.run, c.gen, b.tr)
	if err != nil {
		return fmt.Errorf("stream round: %w", err)
	}
	c.left--
	c.rounds++
	return nil
}

// finish checks the current run, if it has taken any chunks, against a
// batch score of its grown measurements.
func (c *chunkStream) finish(ctx context.Context, b *bench) {
	if c.run != nil && c.last != nil {
		b.checkStream(ctx, c.run, c.last, c.opts)
	}
	c.run = nil
}

// appendRound applies, for each suite in turn, one series-only and one
// totals-carrying chunk, each followed by Scores, and returns the last
// scores. A nil tracer records nothing.
func appendRound(ctx context.Context, run *metric.IncrementalRun, gen *chunkGen, tr *tracer) ([]metric.Scores, error) {
	var last []metric.Scores
	tr.nextPass()
	op := tr.begin(-1, "bench", "stream", "", true)
	defer op.end()
	for suite := 0; suite < run.Suites(); suite++ {
		for _, kind := range []string{"series", "totals"} {
			c := gen.next(suite, kind == "totals")
			sp := tr.begin(op.id(), "metric", "metric.incr_append."+kind, "", true)
			err := run.AppendSamples(suite, c.workload, c.delta, c.series)
			sp.end()
			if err != nil {
				return nil, err
			}
			sp = tr.begin(op.id(), "metric", "metric.incr_scores."+kind, "", true)
			last, err = run.Scores(ctx)
			sp.end()
			if err != nil {
				return nil, err
			}
		}
	}
	return last, nil
}

// checkStream compares a stream's latest scores with a batch score of
// its grown measurements.
func (b *bench) checkStream(ctx context.Context, run *metric.IncrementalRun, last []metric.Scores, opts metric.Options) {
	b.op()
	grown := make([]*perf.SuiteMeasurement, run.Suites())
	for i := range grown {
		grown[i] = clone(run.Measurement(i))
	}
	batch, err := metric.ScoreSuites(ctx, grown, opts, nil)
	if err != nil {
		b.fail("batch score of the grown stream: %v", err)
		return
	}
	if !sameScores(last, batch) {
		b.fail("incremental scores differ from a batch score of the grown measurements")
	}
}

// freeHeap collects the heap and returns its free memory to the OS.
func freeHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setupTimer times every run of a workload's set-up. Workloads repeat
// it between ops, so setup_s, the median, covers the whole measurement
// window rather than its first moment.
type setupTimer struct {
	prep  func() error // if set, runs untimed before each set-up
	fn    func() error
	times []timing // ms
}

// run performs the set-up reps times, timing each.
func (s *setupTimer) run(reps int) error {
	for i := 0; i < reps; i++ {
		if s.prep != nil {
			if err := s.prep(); err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
		}
		t0 := time.Now()
		if err := s.fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.times = append(s.times, timingAt(t0))
	}
	return nil
}
