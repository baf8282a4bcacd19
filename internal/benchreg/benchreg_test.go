package benchreg

import (
	"context"
	"path/filepath"
	"slices"
	"testing"

	perspector "perspector"
	"perspector/internal/obs"
	"perspector/internal/perfhist"
)

// BenchmarkCases runs every registered case as a sub-benchmark,
// BenchmarkCases/<name>.
func BenchmarkCases(b *testing.B) {
	for _, c := range Cases {
		b.Run(c.Name, c.Run)
	}
}

// BenchmarkSimulateSuiteRecorder is Cases/SimulateSuite with a live
// telemetry recorder attached; the pair quantifies the span overhead
// the observability acceptance criterion bounds at 2%. A fresh recorder
// per iteration keeps the arena from amortizing across iterations.
func BenchmarkSimulateSuiteRecorder(b *testing.B) {
	simulate(b, perspector.DefaultConfig(), 0, func() context.Context {
		return obs.WithRecorder(context.Background(), obs.NewRecorder())
	})
}

// BenchmarkIncrementalAppendTotals is Cases/IncrRescore with a counter
// totals delta riding along with every chunk.
func BenchmarkIncrementalAppendTotals(b *testing.B) { incrRescore(b, true) }

// TestCaseNamesMatchHistory pins the registry to the committed history:
// case names are unique and equal, in order, the benchmark names of the
// newest BENCH_history.jsonl record, so a rename cannot silently start
// a new trend line.
func TestCaseNamesMatchHistory(t *testing.T) {
	names := Names()
	seen := make(map[string]bool)
	for _, n := range names {
		if seen[n] {
			t.Errorf("case %q registered twice", n)
		}
		seen[n] = true
	}
	h, err := perfhist.Load(context.Background(), filepath.Join("..", "..", "BENCH_history.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) == 0 {
		t.Fatal("BENCH_history.jsonl holds no record")
	}
	newest := h.Records[len(h.Records)-1]
	var want []string
	for _, b := range newest.Benchmarks {
		want = append(want, b.Name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("case names %v, newest history record (%s) has %v", names, newest.GitSHA, want)
	}
}
