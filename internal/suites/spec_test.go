package suites

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
)

// specSHA256 pins the exact bytes of every embedded spec file. The
// files are the hand-edited source of the registered suites; a change to
// one must update its pin here knowingly, and must keep the score
// goldens (golden_test.go) and counter fingerprints (TestGoldenDeterminism)
// green or update them in the same change.
var specSHA256 = map[string]string{
	"bigdatabench": "21c8e8716b29ae8ba658f10a4cc2725f8dcde34b4c4319ad7cf922cd0e80dd77",
	"cpu2026":      "41f940157295978b02585f748d2e7342dc1563be144c3876ed40f162d06b0c55",
	"ligra":        "31fcf5008d10144054cf1cea842bd98dccf438f588316a7b314f50a2b40df320",
	"lmbench":      "7d0370349b90cb3c098cdf740859b3cf4241347278a7929691ad342f9b15c296",
	"nbench":       "9e3dac8b8dd9fb24eee1b4ee4d4b9f206eae999d565895f998ddb9cb5be2a5a6",
	"parsec":       "84a4347eef1aa9e6ce34ef08ea1ebd4f8a15e4c2e4baa34733642317478c165e",
	"sgxgauge":     "89f9cc0eb4f3e935d978b711c0dc8b0b2f218ebd674658e3efb0bdcf77d6ef1a",
	"spec17":       "55a5701db39b40e898f82e64f6fb5268f7a9a1d75c05f9123f5737eb4e397590",
}

// TestEmbeddedSpecsPinned is the drift gate for the embedded spec files:
// every registered suite has a pin, and every file hashes to it.
func TestEmbeddedSpecsPinned(t *testing.T) {
	names := Names()
	if len(names) != len(specSHA256) {
		t.Errorf("registry has %d suites, %d pinned", len(names), len(specSHA256))
	}
	for _, name := range names {
		data, err := specFS.ReadFile("specs/" + name + ".json")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(data)
		if got, want := hex.EncodeToString(sum[:]), specSHA256[name]; got != want {
			t.Errorf("specs/%s.json sha256 = %s, want %s", name, got, want)
		}
	}
}

// TestRegistryOrderAndNames pins the listing contract: the stock six in
// paper order first, the other families after, and the
// unknown-suite error derived from the same table.
func TestRegistryOrderAndNames(t *testing.T) {
	names := Names()
	wantPrefix := []string{"parsec", "spec17", "ligra", "lmbench", "nbench", "sgxgauge"}
	if len(names) < len(wantPrefix) {
		t.Fatalf("registry has %d suites, want at least %d", len(names), len(wantPrefix))
	}
	for i, w := range wantPrefix {
		if names[i] != w {
			t.Errorf("Names()[%d] = %q, want %q", i, names[i], w)
		}
	}
	for _, extra := range []string{"bigdatabench", "cpu2026"} {
		found := false
		for _, n := range names {
			if n == extra {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing suite %q", extra)
		}
	}
	cfg := DefaultConfig()
	if len(All(cfg)) != 6 {
		t.Errorf("All() returns %d suites, want the stock six", len(All(cfg)))
	}
	if got := len(Registered(cfg)); got != len(names) {
		t.Errorf("Registered() returns %d suites, Names() lists %d", got, len(names))
	}
	_, err := ByName("nosuch", cfg)
	if err == nil {
		t.Fatal("unknown suite accepted")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("unknown-suite error %q does not list %q", err, n)
		}
	}
}

// TestSuiteSpecRoundTrip: a registered spec survives
// Marshal→Unmarshal unchanged, and Build is deterministic.
func TestSuiteSpecRoundTrip(t *testing.T) {
	for _, e := range registry {
		data, err := MarshalSuiteSpec(e.spec)
		if err != nil {
			t.Fatalf("%s: marshal: %v", e.name, err)
		}
		back, err := UnmarshalSuiteSpec(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", e.name, err)
		}
		if !reflect.DeepEqual(e.spec, back) {
			t.Errorf("%s: spec round-trip drift", e.name)
		}
	}
}

// TestSpecOnlySuitesRun: the two PAPERS.md-derived families outside
// Table III must validate, build, and simulate end to end.
func TestSpecOnlySuitesRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Instructions = 20_000
	cfg.Samples = 20
	for _, name := range []string{"bigdatabench", "cpu2026"} {
		s, err := ByName(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.Specs) < 8 {
			t.Errorf("%s: only %d workloads", name, len(s.Specs))
		}
		for i := range s.Specs {
			if err := s.Specs[i].Validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if !strings.HasPrefix(s.Specs[i].Name, name+".") {
				t.Errorf("%s: workload %q not prefixed", name, s.Specs[i].Name)
			}
		}
		sm, err := Run(s, cfg)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		for i := range sm.Workloads {
			if sm.Workloads[i].Totals.Get(0) == 0 {
				t.Errorf("%s: workload %s measured zero cycles", name, sm.Workloads[i].Workload)
			}
		}
	}
}

// TestDecodeSuiteSpecRejects covers the spec-level failure modes that
// sit above the workload codec: version, naming, duplicates, emptiness.
func TestDecodeSuiteSpecRejects(t *testing.T) {
	phases := `[{"weight":1,"load_frac":0.2,"load_pattern":{"kind":"random","working_set":65536}}]`
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"bad version", `{"version":9,"name":"x","workloads":[{"name":"x.a","phases":` + phases + `}]}`, "version"},
		{"no name", `{"version":1,"name":"","workloads":[{"name":"x.a","phases":` + phases + `}]}`, "no name"},
		{"no workloads", `{"version":1,"name":"x","workloads":[]}`, "no workloads"},
		{"unnamed workload", `{"version":1,"name":"x","workloads":[{"name":"","phases":` + phases + `}]}`, "no name"},
		{"duplicate workload", `{"version":1,"name":"x","workloads":[{"name":"x.a","phases":` + phases + `},{"name":"x.a","phases":` + phases + `}]}`, "duplicate"},
		{"no phases", `{"version":1,"name":"x","workloads":[{"name":"x.a","phases":[]}]}`, "phases"},
		{"unknown field", `{"version":1,"name":"x","suites":1,"workloads":[{"name":"x.a","phases":` + phases + `}]}`, "unknown field"},
		{"bad weight", `{"version":1,"name":"x","workloads":[{"name":"x.a","phases":[{"weight":-1,"load_frac":0.2,"load_pattern":{"kind":"random","working_set":65536}}]}]}`, "weight"},
		{"unknown kind", `{"version":1,"name":"x","workloads":[{"name":"x.a","phases":[{"weight":1,"load_frac":0.2,"load_pattern":{"kind":"gather","working_set":65536}}]}]}`, "unknown pattern kind"},
	}
	for _, tc := range cases {
		_, err := UnmarshalSuiteSpec([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
