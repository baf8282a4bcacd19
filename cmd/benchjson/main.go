// Command benchjson runs the benchmark registry (internal/benchreg)
// under the testing package's benchmark driver and records the results
// as machine-readable JSON. Each run appends one line to
// BENCH_history.jsonl (disable with -history ""): every case's ns/op,
// plus simulated instr/sec for the cases that report instructions per
// op, with the git commit, Go version and platform. The log is the
// repository's instr/sec trajectory across commits:
//
//	go run ./cmd/benchjson -note "my change"
//
// -out additionally writes the run's record as indented JSON.
//
// With -check-history <jsonl>, the run is gated against the accumulated
// history distribution: each instr/sec-bearing case must not fall below
// the p10 floor (less 5% slack) of the last 10 runs recorded on the same
// machine class (goos/goarch). The floor tracks what the machine class
// actually sustains, and the gate refuses to judge (inconclusive pass)
// when the history holds fewer than 3 same-class runs. A gated run keeps
// the best of three rounds of every case: scheduling noise on shared
// runners only ever slows a run down, so the fastest observation is the
// least contaminated one.
//
// The compare subcommand is the paired same-moment A/B primitive the CI
// regression gate runs:
//
//	go run ./cmd/benchjson compare -a SimulateSuite -rounds 5 -out verdict.json
//
// It measures A and B back-to-back in each round (interleaved, so slow
// machine moments hit both sides of a pair), judges the best-of-N ns/op
// delta against a noise band estimated from the rounds themselves
// (internal/perfhist.Compare), writes a machine-readable Verdict, and
// exits non-zero on a statistically significant regression. With -b
// omitted, B is the same benchmark as A — a no-change self-comparison
// that must pass, which CI runs to validate the comparator itself. The
// -inject-slowdown knob multiplies B's observed ns/op to prove the gate
// fires on a real slowdown (the synthetic-regression self-test journaled
// in EXPERIMENTS.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"perspector/internal/benchreg"
	"perspector/internal/buildinfo"
	"perspector/internal/perfhist"
)

// gateRounds is how many rounds of every case a gated run keeps the
// best of.
const gateRounds = 3

// The report schema is owned by internal/perfhist — Record is one run,
// Benchmark one measurement — so this producer, the perspectord history
// service, and the obscheck validator share a single codec.
type result = perfhist.Benchmark

type report = perfhist.Record

// gitSHA resolves the current commit: the VCS stamp when the build
// recorded one (go build), falling back to asking git (go run strips the
// stamp). A repository-less run just yields "".
func gitSHA() string {
	if rev := buildinfo.Read().Revision; rev != "" {
		return rev
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

func lookupCase(name string) benchreg.Case {
	c, ok := benchreg.Lookup(name)
	if !ok {
		fatal(fmt.Errorf("unknown benchmark %q (have %s)", name, strings.Join(benchreg.Names(), ", ")))
	}
	return c
}

func main() {
	testing.Init() // register test.* flags so benchtime can be set below
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		runCompare(os.Args[2:])
		return
	}
	runRecord(os.Args[1:])
}

// setBenchtime sets the driver's package-level benchtime: there is no
// public per-run knob, so set it the way `go test -benchtime` would.
func setBenchtime(d time.Duration) {
	if err := flag.Set("test.benchtime", d.String()); err != nil {
		fatal(err)
	}
}

// runRecord is the default mode: run every registered case, append the
// run to the history, and apply the history gate when asked.
func runRecord(args []string) {
	fs := flag.NewFlagSet("benchjson", flag.ExitOnError)
	out := fs.String("out", "", "also write the run's record as indented JSON here")
	history := fs.String("history", "BENCH_history.jsonl", "append the run to this JSONL history (empty disables)")
	benchtime := fs.Duration("benchtime", time.Second, "minimum run time per benchmark")
	note := fs.String("note", "", "free-form origin tag recorded with the run (e.g. ci)")
	checkHistory := fs.String("check-history", "", "gate instr/sec-bearing benchmarks against this history's distribution")
	fs.Parse(args)
	setBenchtime(*benchtime)
	rounds := 1
	if *checkHistory != "" {
		rounds = gateRounds
	}

	rep := report{
		GeneratedAt: time.Now().UTC().Truncate(time.Second),
		GitSHA:      gitSHA(),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Rounds:      rounds,
		Note:        *note,
	}
	for _, c := range benchreg.Cases {
		var r testing.BenchmarkResult
		for round := 0; round < rounds; round++ {
			got := testing.Benchmark(c.Run)
			if got.N == 0 {
				fatal(fmt.Errorf("%s did not run (benchmark failed?)", c.Name))
			}
			if round == 0 || nsPerOp(got) < nsPerOp(r) {
				r = got
			}
		}
		res := result{
			Name:       c.Name,
			NsPerOp:    nsPerOp(r),
			Iterations: r.N,
		}
		if instr := r.Extra[benchreg.InstrMetric]; instr > 0 {
			res.SimulatedInstrPerOp = uint64(instr)
			res.SimulatedInstrPerSec = instr / (res.NsPerOp / 1e9)
		}
		rep.Benchmarks = append(rep.Benchmarks, res)
		fmt.Printf("%-24s %12.1f ns/op", res.Name, res.NsPerOp)
		if res.SimulatedInstrPerSec > 0 {
			fmt.Printf("  %.3g simulated instr/sec", res.SimulatedInstrPerSec)
		}
		fmt.Println()
	}

	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	// Gate against the history distribution as it stood BEFORE this run
	// is appended, so a run is never its own reference.
	var gateErr error
	if *checkHistory != "" {
		gateErr = checkAgainstHistory(*checkHistory, rep)
	}
	if *history != "" {
		if err := appendHistory(*history, rep); err != nil {
			fatal(err)
		}
	}
	if gateErr != nil {
		fatal(gateErr)
	}
}

// runCompare is the paired same-moment A/B gate: measure A and B
// interleaved for -rounds rounds, judge through perfhist.Compare, and
// exit non-zero on a significant regression.
func runCompare(args []string) {
	fs := flag.NewFlagSet("benchjson compare", flag.ExitOnError)
	aName := fs.String("a", "SimulateSuite", "baseline benchmark ("+strings.Join(benchreg.Names(), ", ")+")")
	bName := fs.String("b", "", "candidate benchmark (default: same as -a, a no-change self-comparison)")
	rounds := fs.Int("rounds", 5, "interleaved (A,B) round pairs")
	benchtime := fs.Duration("benchtime", time.Second, "minimum run time per benchmark round")
	out := fs.String("out", "", "write the machine-readable verdict JSON here (the CI job artifact)")
	inject := fs.Float64("inject-slowdown", 1, "multiply B's observed ns/op — synthetic-regression self-test knob")
	fs.Parse(args)
	setBenchtime(*benchtime)
	if *bName == "" {
		*bName = *aName
	}
	a, bb := lookupCase(*aName), lookupCase(*bName)
	if *rounds < 1 {
		fatal(fmt.Errorf("compare needs at least one round"))
	}
	label := a.Name
	if bb.Name != a.Name {
		label = a.Name + " vs " + bb.Name
	}
	var aNs, bNs []float64
	for round := 0; round < *rounds; round++ {
		ra := testing.Benchmark(a.Run)
		rb := testing.Benchmark(bb.Run)
		if ra.N == 0 || rb.N == 0 {
			fatal(fmt.Errorf("round %d did not run (benchmark failed?)", round))
		}
		aNs = append(aNs, nsPerOp(ra))
		bNs = append(bNs, nsPerOp(rb)**inject)
		fmt.Printf("round %d/%d: A %.3g ns/op, B %.3g ns/op\n",
			round+1, *rounds, aNs[round], bNs[round])
	}
	v, err := perfhist.Compare(context.Background(), label, aNs, bNs, perfhist.CompareOptions{})
	if err != nil {
		fatal(err)
	}
	fmt.Println(v.Summary)
	if *out != "" {
		buf, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	if v.Regressed {
		os.Exit(1)
	}
}

// checkAgainstHistory gates every instr/sec-bearing benchmark of the
// run against the history distribution: fail when one lands below the
// p10 floor of the last 10 same-machine-class runs.
func checkAgainstHistory(path string, rep report) error {
	ctx := context.Background()
	h, err := perfhist.Load(ctx, path)
	if err != nil {
		return err
	}
	class := rep.Class()
	var failed []string
	for _, b := range rep.Benchmarks {
		if b.SimulatedInstrPerSec <= 0 {
			continue
		}
		res := h.Gate(ctx, b.Name, class, b.SimulatedInstrPerSec, perfhist.GateOptions{})
		switch {
		case res.Inconclusive:
			fmt.Printf("check-history: %-24s inconclusive: %s\n", b.Name, res.Reason)
		case res.Pass:
			fmt.Printf("check-history: %-24s %.3g instr/sec ≥ p%g floor %.3g (%d %s/%s runs)\n",
				b.Name, res.Current, res.Percentile, res.Floor, res.ReferenceRuns, class.GOOS, class.GOARCH)
		default:
			failed = append(failed, res.Reason)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("history gate: %s", strings.Join(failed, "; "))
	}
	return nil
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// appendHistory adds the run as one JSON line to the history file.
func appendHistory(path string, rep report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
