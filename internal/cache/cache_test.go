package cache

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"perspector/internal/suites"
	"perspector/internal/workload"
)

func smallConfig() suites.Config {
	cfg := suites.DefaultConfig()
	cfg.Instructions = 20_000
	cfg.Samples = 10
	return cfg
}

// mustByName builds a registered suite under cfg.
func mustByName(t *testing.T, name string, cfg suites.Config) suites.Suite {
	t.Helper()
	s, err := suites.ByName(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKeyIsStableAndSensitive(t *testing.T) {
	cfg := smallConfig()
	s := mustByName(t, "nbench", cfg)
	base := Key(s, cfg)
	if base != Key(mustByName(t, "nbench", cfg), cfg) {
		t.Fatal("key not deterministic for identical inputs")
	}

	seeded := cfg
	seeded.Seed++
	if Key(mustByName(t, "nbench", seeded), seeded) == base {
		t.Fatal("seed change did not change the key")
	}
	sampled := cfg
	sampled.Samples++
	if Key(mustByName(t, "nbench", sampled), sampled) == base {
		t.Fatal("sample-count change did not change the key")
	}
	machined := cfg
	machined.Machine.NextLinePrefetch = !machined.Machine.NextLinePrefetch
	if Key(mustByName(t, "nbench", machined), machined) == base {
		t.Fatal("machine-config change did not change the key")
	}
	if Key(mustByName(t, "lmbench", cfg), cfg) == base {
		t.Fatal("different suite did not change the key")
	}
	totals := cfg
	totals.TotalsOnly = true
	if Key(mustByName(t, "nbench", totals), totals) == base {
		t.Fatal("totals-only change did not change the key")
	}
}

// TestKeyDistinguishesPatternKinds pins the fix for the %+v rendering:
// two pattern kinds with identical field shapes (Random and
// PointerChase both carry only WorkingSet) must hash differently, and a
// user-built suite must hash identically to a spec-decoded one with the
// same content.
func TestKeyDistinguishesPatternKinds(t *testing.T) {
	cfg := smallConfig()
	mk := func(pat workload.PatternSpec) suites.Suite {
		return suites.Suite{Name: "probe", Specs: []workload.Spec{{
			Name: "probe.w", Instructions: cfg.Instructions, Seed: 1,
			Phases: []workload.Phase{{Weight: 1, LoadFrac: 0.3, LoadPattern: pat}},
		}}}
	}
	kRandom := Key(mk(workload.Random{WorkingSet: 1 << 20}), cfg)
	kChase := Key(mk(workload.PointerChase{WorkingSet: 1 << 20}), cfg)
	if kRandom == kChase {
		t.Fatal("Random and PointerChase patterns hash to the same key")
	}
	if kRandom != Key(mk(workload.Random{WorkingSet: 1 << 20}), cfg) {
		t.Fatal("identical content did not reproduce the key")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	cfg := smallConfig()
	s := mustByName(t, "nbench", cfg)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := st.Measure(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits() != 0 || st.Misses() != 1 {
		t.Fatalf("cold run: hits=%d misses=%d", st.Hits(), st.Misses())
	}
	warm, err := st.Measure(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits() != 1 {
		t.Fatalf("warm run did not hit: hits=%d misses=%d", st.Hits(), st.Misses())
	}
	if warm.Suite != cold.Suite || len(warm.Workloads) != len(cold.Workloads) {
		t.Fatal("warm measurement shape differs")
	}
	for i := range cold.Workloads {
		cw, ww := &cold.Workloads[i], &warm.Workloads[i]
		if cw.Workload != ww.Workload || cw.Totals != ww.Totals {
			t.Fatalf("workload %d totals differ after round trip", i)
		}
		for c := range cw.Series.Samples {
			if !reflect.DeepEqual(cw.Series.Samples[c], ww.Series.Samples[c]) {
				t.Fatalf("workload %d counter %d series not bit-identical", i, c)
			}
		}
	}
}

func TestCorruptEntryHealsAsMiss(t *testing.T) {
	cfg := smallConfig()
	s := mustByName(t, "nbench", cfg)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(s, cfg)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("corrupt entry served as hit")
	}
	if _, err := os.Stat(filepath.Join(dir, key+".json")); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed")
	}
	// The slot heals: a Measure fills it and the next Get hits.
	if _, err := st.Measure(s, cfg); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); !ok {
		t.Fatal("healed entry did not hit")
	}
}

// TestPutIsAtomicUnderConcurrentReaders pins down the temp-file +
// os.Rename contract of Put: while writers rewrite an entry, a reader
// must only ever observe a complete, valid entry — never a miss (the
// file always exists once written, and rename swaps inodes atomically)
// and never torn bytes (which Get would report by healing the entry
// away). Rename must also leave no temp files behind.
func TestPutIsAtomicUnderConcurrentReaders(t *testing.T) {
	cfg := smallConfig()
	s := mustByName(t, "nbench", cfg)
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := suites.Run(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(s, cfg)
	if err := st.Put(key, m); err != nil {
		t.Fatal(err)
	}
	want, ok := st.Get(key)
	if !ok {
		t.Fatal("freshly written entry missed")
	}

	stop := make(chan struct{})
	errs := make(chan error, 8)
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, ok := st.Get(key)
				if !ok {
					// Would mean a reader caught the entry mid-write:
					// ReadJSON failed and Get healed the file away.
					select {
					case errs <- fmt.Errorf("reader observed a torn or missing entry"):
					default:
					}
					return
				}
				if !reflect.DeepEqual(got, want) {
					select {
					case errs <- fmt.Errorf("reader observed a partial entry"):
					default:
					}
					return
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 25; i++ {
				if err := st.Put(key, m); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	tmps, err := filepath.Glob(filepath.Join(dir, "put-*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("Put left temp files behind: %v", tmps)
	}
}

func TestNilStorePassThrough(t *testing.T) {
	var st *Store
	cfg := smallConfig()
	m, err := st.Measure(mustByName(t, "nbench", cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || len(m.Workloads) == 0 {
		t.Fatal("nil store did not measure")
	}
	if _, ok := st.Get("abc"); ok {
		t.Fatal("nil store hit")
	}
	if err := st.Put("abc", m); err != nil {
		t.Fatal(err)
	}
	if st.Stats() != "cache disabled" {
		t.Fatalf("nil stats = %q", st.Stats())
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}
