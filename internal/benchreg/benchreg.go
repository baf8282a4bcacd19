// Package benchreg is the registry of the repository's tracked
// micro-benchmarks. Every case's body is defined once, here, and both
// drivers iterate the same table:
//
//   - cmd/benchjson records the cases into BENCH_history.jsonl, gates a
//     run against that history, and runs the paired A/B compare;
//   - `go test -run '^$' -bench . ./internal/benchreg` runs them as
//     BenchmarkCases/<name>.
//
// Case names are the stable IDs the history records, so a renamed case
// breaks its trend line; TestCaseNamesMatchHistory pins them to the
// newest committed record. The cases run from suite level down to
// single components, so a regression can be localized to the layer
// that caused it: the Nbench suite end to end (full sampled run and the
// counters-only fast path), one workload, the streaming instruction-log
// reader, the batch vs incremental rescore pair behind perspectord's
// streaming scores, and the machine step, cache and TLB primitives.
package benchreg

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"testing"

	perspector "perspector"
	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/rng"
	"perspector/internal/trace"
	"perspector/internal/uarch"
)

// InstrMetric is the b.ReportMetric unit in which a case states how
// many simulated instructions one op executes (for StreamIngest: how
// many log records it parses). benchjson derives simulated instr/sec
// from it; cases that do not report it are not instruction-granular.
const InstrMetric = "instructions/op"

// Case is one registered benchmark.
type Case struct {
	Name string
	Run  func(b *testing.B)
}

// Cases lists the tracked benchmarks in the order the history records
// them.
var Cases = []Case{
	// The Nbench suite end to end at the paper's full configuration.
	{"SimulateSuite", func(b *testing.B) { simulate(b, perspector.DefaultConfig(), 0, nil) }},
	// The same suite through the counters-only fast path: no sampled
	// series, totals bit-identical to the full run.
	{"SimulateSuiteTotalsOnly", func(b *testing.B) {
		cfg := perspector.DefaultConfig()
		cfg.TotalsOnly = true
		simulate(b, cfg, 0, nil)
	}},
	// One workload — the first Nbench kernel — so per-core throughput
	// is separable from the sharded suite number.
	{"SimulateWorkload", func(b *testing.B) { simulate(b, perspector.DefaultConfig(), 1, nil) }},
	{"StreamIngest", streamIngest},
	// Batch-scoring the fixed measurement from scratch every op: what a
	// streaming client would pay per chunk without the incremental
	// engine.
	{"FullRescore", func(b *testing.B) {
		sm := rescoreMeasurement()
		opts := metric.DefaultOptions()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := metric.ScoreSuites(ctx, []*perf.SuiteMeasurement{sm}, opts, nil); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"IncrRescore", func(b *testing.B) { incrRescore(b, false) }},
	{"MachineStep", machineStep},
	{"CacheAccess", func(b *testing.B) {
		c, err := uarch.NewCache(uarch.CacheConfig{Name: "b", SizeB: 32 << 10, LineB: 64, Ways: 8})
		if err != nil {
			b.Fatal(err)
		}
		addrs := randAddrs(1 << 22)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(addrs[i&4095])
		}
	}},
	{"TLBTranslate", func(b *testing.B) {
		tlb, err := uarch.NewTLB(uarch.DefaultTLBConfig())
		if err != nil {
			b.Fatal(err)
		}
		addrs := randAddrs(1 << 30)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tlb.Translate(addrs[i&4095])
		}
	}},
}

// Lookup returns the case registered under name.
func Lookup(name string) (Case, bool) {
	for _, c := range Cases {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// Names returns the registered case names in registry order.
func Names() []string {
	names := make([]string, len(Cases))
	for i, c := range Cases {
		names[i] = c.Name
	}
	return names
}

// simulate measures the Nbench suite at cfg once per op — only its
// first `workloads` kernels when workloads > 0 — under the context
// newCtx returns (context.Background when nil), and reports the
// simulated instructions per op.
func simulate(b *testing.B, cfg perspector.Config, workloads int, newCtx func() context.Context) {
	s, err := perspector.SuiteByName("nbench", cfg)
	if err != nil {
		b.Fatal(err)
	}
	if workloads > 0 {
		s.Specs = s.Specs[:workloads]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		if newCtx != nil {
			ctx = newCtx()
		}
		if _, err := perspector.MeasureContext(ctx, s, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cfg.Instructions*uint64(len(s.Specs))), InstrMetric)
}

// streamBlock renders ~1 MiB of instruction-log text cycling through
// all five record kinds, and reports how many records it holds. The
// block is what one StreamIngest op parses.
func streamBlock() ([]byte, int) {
	var buf []byte
	records := 0
	for i := uint64(0); len(buf) < 1<<20; i++ {
		buf = append(buf, 'A', '\n')
		buf = append(buf, 'L', ',')
		buf = strconv.AppendUint(buf, i*64%(1<<22), 10)
		buf = append(buf, '\n', 'S', ',')
		buf = strconv.AppendUint(buf, i*128%(1<<24), 10)
		buf = append(buf, '\n', 'B', ',')
		buf = strconv.AppendUint(buf, 0x400000+i%64*4, 10)
		buf = append(buf, ',', '0'+byte(i&1), '\n')
		buf = append(buf, 'Y', ',', '0', '\n')
		records += 5
	}
	return buf, records
}

// repeatReader serves block reps times — a long log without the long
// buffer.
type repeatReader struct {
	block []byte
	off   int
	reps  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.reps == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.block[r.off:])
	r.off += n
	if r.off == len(r.block) {
		r.off = 0
		r.reps--
	}
	return n, nil
}

// streamIngest measures the streaming trace reader: one op parses one
// streamBlock through a single ProgramReader's NextBatch. Its
// instructions/op is parsed log records — the ingest ceiling for
// replaying instruction logs through the simulator.
func streamIngest(b *testing.B) {
	block, perBlock := streamBlock()
	pr := trace.NewProgramReader(&repeatReader{block: block, reps: b.N}, "bench")
	batch := make([]uarch.Instr, 4096)
	b.SetBytes(int64(len(block)))
	b.ResetTimer()
	total := 0
	for {
		n := pr.NextBatch(batch)
		total += n
		if n < len(batch) {
			break
		}
	}
	if err := pr.Err(); err != nil {
		b.Fatal(err)
	}
	if total != perBlock*b.N {
		b.Fatalf("parsed %d records, want %d", total, perBlock*b.N)
	}
	b.ReportMetric(float64(perBlock), InstrMetric)
}

// rescoreMeasurement fabricates the fixed 64-workload measurement the
// rescore cases score: totals plus a 64-sample delta series per counter
// — the shape a perspectord stream accumulates chunk by chunk.
func rescoreMeasurement() *perf.SuiteMeasurement {
	src := rng.New(2023)
	sm := &perf.SuiteMeasurement{Suite: "streambench"}
	for i := 0; i < 64; i++ {
		m := perf.Measurement{Workload: fmt.Sprintf("w%02d", i)}
		m.Series.Interval = 1000
		for c := 0; c < int(perf.NumCounters); c++ {
			m.Totals[perf.Counter(c)] = uint64(src.Intn(50000))
			for s := 0; s < 64; s++ {
				m.Series.Samples[perf.Counter(c)] = append(
					m.Series.Samples[perf.Counter(c)], float64(src.Intn(2000)))
			}
		}
		sm.Workloads = append(sm.Workloads, m)
	}
	return sm
}

// incrRescore measures the streaming steady state: the run already
// holds the measurement with every artifact cached, and one op appends
// a chunk (two series samples per counter) to one workload and
// rescores incrementally. withTotals makes the chunk also carry a
// counter totals delta, the worst case: the normalization bounds, the
// distance matrix and every totals-derived metric recompute too.
func incrRescore(b *testing.B, withTotals bool) {
	run, err := metric.NewIncrementalRun(
		[]*perf.SuiteMeasurement{rescoreMeasurement()}, metric.DefaultOptions(), nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := run.Scores(ctx); err != nil {
		b.Fatal(err)
	}
	names := make([]string, len(run.Measurement(0).Workloads))
	for i := range names {
		names[i] = run.Measurement(0).Workloads[i].Workload
	}
	src := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var delta perf.Values
		tail := &perf.TimeSeries{Interval: 1000}
		for c := 0; c < int(perf.NumCounters); c++ {
			if withTotals {
				delta[perf.Counter(c)] = uint64(src.Intn(500))
			}
			tail.Samples[perf.Counter(c)] = []float64{
				float64(src.Intn(2000)), float64(src.Intn(2000))}
		}
		if err := run.AppendSamples(0, names[i%len(names)], delta, tail); err != nil {
			b.Fatal(err)
		}
		if _, err := run.Scores(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// strideProg is a deterministic generator with a fixed kind mix whose
// own cost is a few ALU ops, so MachineStep isolates the machine's
// per-instruction step.
type strideProg struct {
	n, limit uint64
}

func (p *strideProg) Name() string { return "stride" }

func (p *strideProg) Next(in *uarch.Instr) bool {
	if p.n >= p.limit {
		return false
	}
	i := p.n
	p.n++
	switch i % 8 {
	case 0, 3:
		*in = uarch.Instr{Kind: uarch.Load, Addr: i * 24}
	case 5:
		*in = uarch.Instr{Kind: uarch.Store, Addr: i * 40}
	case 6:
		*in = uarch.Instr{Kind: uarch.Branch, PC: 0x400000 + i%32*4, Taken: i%3 != 0}
	default:
		*in = uarch.Instr{Kind: uarch.ALU}
	}
	return true
}

func (p *strideProg) Reset() { p.n = 0 }

// machineStep measures the per-instruction cost of the machine's
// execution loop itself — dispatch, cache/TLB lookups, PMU accounting.
// One op is one instruction.
func machineStep(b *testing.B) {
	m, err := uarch.NewMachine(uarch.DefaultMachineConfig())
	if err != nil {
		b.Fatal(err)
	}
	n := uint64(b.N)
	b.ResetTimer()
	if _, err := m.Run(&strideProg{limit: n}, n); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(1, InstrMetric)
}

// randAddrs draws the 4096 addresses the component cases cycle through,
// uniform below limit.
func randAddrs(limit int) []uint64 {
	src := rng.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(src.Intn(limit))
	}
	return addrs
}
