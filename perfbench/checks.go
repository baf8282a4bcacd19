package main

import (
	_ "embed"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"strconv"

	"perspector/internal/metric"
	"perspector/internal/perf"
	"perspector/internal/suites"
)

// golden holds the six stock suites' compare scores and summed simulated
// counts at the paper config and defaultSeed, taken from the code this
// benchmark was written against. Scores are hex floats, so the check is
// bit-exact. Regenerate with -write-golden only for a change that is
// meant to alter scores.
//
//go:embed golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed         uint64              `json:"seed"`
	Instructions uint64              `json:"instructions"`
	Samples      int                 `json:"samples"`
	Scores       []map[string]string `json:"scores"`
	Sim          map[string]uint64   `json:"sim"`
}

// simCounters are the simulated statistics reported as uarch.sim.*,
// summed over the stock six. "instructions" is the retired budget.
var simCounters = []string{"instructions", "cpu-cycles", "LLC-load-misses",
	"dTLB-load-misses", "branch-misses", "page-faults"}

// simCounts sums the simulated statistics over the measurements. The
// simulator retires exactly each workload's instruction budget, so
// instructions come from the suite specs.
func simCounts(cfg suites.Config, ms []*perf.SuiteMeasurement) (map[string]uint64, error) {
	ss, err := stockSuites(cfg)
	if err != nil {
		return nil, err
	}
	out := map[string]uint64{}
	for i, sm := range ms {
		for j, w := range sm.Workloads {
			out["instructions"] += ss[i].Specs[j].Instructions
			for _, name := range simCounters[1:] {
				c, err := perf.ParseCounter(name)
				if err != nil {
					return nil, err
				}
				out[name] += w.Totals[c]
			}
		}
	}
	return out, nil
}

func hexScores(scores []metric.Scores) []map[string]string {
	out := make([]map[string]string, len(scores))
	for i, s := range scores {
		h := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
		out[i] = map[string]string{"suite": s.Suite, "cluster": h(s.Cluster),
			"trend": h(s.Trend), "coverage": h(s.Coverage), "spread": h(s.Spread)}
	}
	return out
}

// checkGolden compares a paper-config compare of the stock six with the
// pinned references; at any other seed there is nothing pinned.
func (b *bench) checkGolden(scores []metric.Scores, ms []*perf.SuiteMeasurement, cfg suites.Config) {
	if cfg.Seed != defaultSeed {
		b.note("seed %d is not the pinned seed %d: scores checked for repeatability only", cfg.Seed, defaultSeed)
		return
	}
	b.op()
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		b.fail("golden.json: %v", err)
		return
	}
	if g.Seed != cfg.Seed || g.Instructions != cfg.Instructions || g.Samples != cfg.Samples {
		b.fail("golden.json was taken at another config")
		return
	}
	got := hexScores(scores)
	if len(got) != len(g.Scores) {
		b.fail("golden: %d suites scored, %d pinned", len(got), len(g.Scores))
		return
	}
	for i := range got {
		for k, v := range g.Scores[i] {
			if got[i][k] != v {
				b.fail("golden: %s %s = %s, pinned %s", got[i]["suite"], k, got[i][k], v)
			}
		}
	}
	sim, err := simCounts(cfg, ms)
	if err != nil {
		b.fail("sim counts: %v", err)
		return
	}
	for _, name := range simCounters {
		if sim[name] != g.Sim[name] {
			b.fail("golden: uarch.sim.%s = %d, pinned %d", name, sim[name], g.Sim[name])
		}
	}
}

// writeGolden measures the paper-config compare at seed and rewrites
// perfbench/golden.json from it. Run it from the checkout root.
func writeGolden(seed uint64, workers int) (int, error) {
	cfg := paperConfig(seed)
	ms, scores, err := cliCompare(cfg, "", workers)
	if err != nil {
		return 1, err
	}
	sim, err := simCounts(cfg, ms)
	if err != nil {
		return 1, err
	}
	g := goldenFile{Seed: cfg.Seed, Instructions: cfg.Instructions, Samples: cfg.Samples,
		Scores: hexScores(scores), Sim: sim}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return 1, err
	}
	if err := os.WriteFile("perfbench/golden.json", append(data, '\n'), 0o644); err != nil {
		return 1, err
	}
	return 0, nil
}

// sameScores reports whether two score lists are bit-identical.
func sameScores(a, b []metric.Scores) bool {
	if len(a) != len(b) {
		return false
	}
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		if a[i].Suite != b[i].Suite || !eq(a[i].Cluster, b[i].Cluster) || !eq(a[i].Trend, b[i].Trend) ||
			!eq(a[i].Coverage, b[i].Coverage) || !eq(a[i].Spread, b[i].Spread) {
			return false
		}
	}
	return true
}

// sameMeasurements reports whether two measurement lists are
// bit-identical: names, counter totals and every series sample.
func sameMeasurements(a, b []*perf.SuiteMeasurement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Suite != b[i].Suite || len(a[i].Workloads) != len(b[i].Workloads) {
			return false
		}
		for j := range a[i].Workloads {
			x, y := &a[i].Workloads[j], &b[i].Workloads[j]
			if x.Workload != y.Workload || x.Totals != y.Totals || x.Series.Interval != y.Series.Interval {
				return false
			}
			for c := range x.Series.Samples {
				if len(x.Series.Samples[c]) != len(y.Series.Samples[c]) {
					return false
				}
				for k, v := range x.Series.Samples[c] {
					if math.Float64bits(v) != math.Float64bits(y.Series.Samples[c][k]) {
						return false
					}
				}
			}
		}
	}
	return true
}

// clone deep-copies a measurement (an IncrementalRun owns and grows the
// measurements it is given).
func clone(sm *perf.SuiteMeasurement) *perf.SuiteMeasurement {
	out := &perf.SuiteMeasurement{Suite: sm.Suite, Workloads: make([]perf.Measurement, len(sm.Workloads))}
	for i, w := range sm.Workloads {
		out.Workloads[i] = w
		for c := range w.Series.Samples {
			out.Workloads[i].Series.Samples[c] = append([]float64(nil), w.Series.Samples[c]...)
		}
	}
	return out
}

func cloneAll(ms []*perf.SuiteMeasurement) []*perf.SuiteMeasurement {
	out := make([]*perf.SuiteMeasurement, len(ms))
	for i, sm := range ms {
		out[i] = clone(sm)
	}
	return out
}

// chunk is one stream append: two new samples per counter for one
// workload and, for a totals-carrying chunk, the counts they add.
type chunk struct {
	workload string
	delta    perf.Values
	series   *perf.TimeSeries
}

// chunkGen draws chunks from the seed. Each chunk continues a random
// workload of the base measurements with two of its own recorded
// samples per counter, so appended values look like the workload's.
type chunkGen struct {
	r    *rand.Rand
	base []*perf.SuiteMeasurement
}

func newChunkGen(seed uint64, base []*perf.SuiteMeasurement) *chunkGen {
	return &chunkGen{r: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), base: base}
}

// next draws a chunk for a random workload of suite s.
func (g *chunkGen) next(s int, totals bool) chunk {
	w := &g.base[s].Workloads[g.r.IntN(len(g.base[s].Workloads))]
	c := chunk{workload: w.Workload, series: &perf.TimeSeries{Interval: w.Series.Interval}}
	for k := range w.Series.Samples {
		src := w.Series.Samples[k]
		if len(src) == 0 {
			continue
		}
		a, b := src[g.r.IntN(len(src))], src[g.r.IntN(len(src))]
		c.series.Samples[k] = []float64{a, b}
		if totals {
			c.delta[k] = uint64(math.Round(a + b))
		}
	}
	return c
}
