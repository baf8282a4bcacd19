package uarch

import (
	"sync"
	"testing"

	"perspector/internal/rng"
)

// TestSetIndexMatchesModulo pins the division-free set selection against
// the modulo it replaces, across every geometry the simulator configures
// (including the non-power-of-two 12288-set L3 and the TLB levels that
// reuse Cache with one-byte lines) plus adversarial synthetic shapes.
// Random 64-bit lines routinely push the odd-factor quotient past 2^32,
// so both the Lemire reduction and its wide fallback are exercised.
func TestSetIndexMatchesModulo(t *testing.T) {
	mc := DefaultMachineConfig()
	cfgs := []CacheConfig{
		mc.L1, // 64 sets
		mc.L2, // 512 sets
		mc.L3, // 12288 sets = 3 << 12
		{Name: "dTLB-L1", SizeB: mc.TLB.L1Entries, LineB: 1, Ways: mc.TLB.L1Ways},
		{Name: "dTLB-L2", SizeB: mc.TLB.L2Entries, LineB: 1, Ways: mc.TLB.L2Ways},
		{Name: "odd-80", SizeB: 80 * 64 * 2, LineB: 64, Ways: 2}, // 80 = 5 << 4
		{Name: "odd-48", SizeB: 48 * 64 * 4, LineB: 64, Ways: 4}, // 48 = 3 << 4
		{Name: "prime-7", SizeB: 7 * 64, LineB: 64, Ways: 1},     // odd with shift 0
		{Name: "one-set", SizeB: 64 * 16, LineB: 64, Ways: 16},   // degenerate single set
	}
	src := rng.New(0x5e71dece)
	for _, cfg := range cfgs {
		c, err := NewCache(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		for i := 0; i < 200_000; i++ {
			line := src.Uint64()
			switch i % 4 {
			case 1:
				line >>= 6 // typical line-number magnitude
			case 2:
				line &= 1<<20 - 1 // small working set
			case 3:
				line |= 1 << 63 // force the wide-quotient fallback
			}
			if got, want := c.setIndex(line), line%c.numSets; got != want {
				t.Fatalf("%s: setIndex(%#x) = %d, want %d (sets=%d)",
					cfg.Name, line, got, want, c.numSets)
			}
		}
	}
}

func TestCacheRejectsTooManyWays(t *testing.T) {
	_, err := NewCache(CacheConfig{Name: "wide", SizeB: 17 * 64, LineB: 64, Ways: 17})
	if err == nil {
		t.Fatal("17-way cache accepted; packed-LRU order word only holds 16 ways")
	}
}

func TestPageBitmap(t *testing.T) {
	var b pageBitmap
	b.init()
	pages := []uint64{0, 1, 63, 64, 1 << pageChunkBits, 1 << 40, 1<<52 - 1}
	for _, p := range pages {
		if b.testAndSet(p) {
			t.Fatalf("page %#x reported touched before first touch", p)
		}
		if !b.testAndSet(p) {
			t.Fatalf("page %#x not remembered after touch", p)
		}
	}
	// Neighbours of touched pages stay untouched.
	if b.testAndSet(2) {
		t.Fatal("untouched neighbour page reported touched")
	}
	b.reset()
	for _, p := range pages {
		if b.testAndSet(p) {
			t.Fatalf("page %#x survived reset", p)
		}
	}
}

// TestPoolReuseIsDeterministic checks the pooling contract: a machine
// dirtied by one workload and recycled through the pool measures exactly
// like a freshly built one.
func TestPoolReuseIsDeterministic(t *testing.T) {
	cfg := DefaultMachineConfig()
	cfg.SampleInterval = 500

	fresh, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(newStrideProg(5000), 5000)
	if err != nil {
		t.Fatal(err)
	}

	var pool MachinePool
	dirty, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dirty.Run(newStrideProg(3000), 3000); err != nil {
		t.Fatal(err)
	}
	pool.Put(dirty)

	recycled, err := pool.Get(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if recycled != dirty {
		t.Fatal("pool did not hand back the recycled machine")
	}
	got, err := recycled.Run(newStrideProg(5000), 5000)
	if err != nil {
		t.Fatal(err)
	}
	if got.Totals != want.Totals {
		t.Fatalf("recycled machine diverges from fresh:\nfresh:    %v\nrecycled: %v", want.Totals, got.Totals)
	}
}

// TestPoolConcurrentGetPut hammers the pool from many goroutines; run
// under -race this doubles as the pool's synchronization test.
func TestPoolConcurrentGetPut(t *testing.T) {
	cfg := DefaultMachineConfig()
	cfg.L3.SizeB = 64 << 10 // keep per-machine state small for the test
	var pool MachinePool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				m, err := pool.Get(cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Run(newStrideProg(200), 200); err != nil {
					t.Error(err)
					return
				}
				pool.Put(m)
			}
		}()
	}
	wg.Wait()
}

// strideProg is a minimal deterministic program for machine-level
// tests: a fixed repeating kind pattern with striding loads and
// alternating branches, no RNG in the emission path.
type strideProg struct {
	n, limit uint64
}

func newStrideProg(limit uint64) *strideProg { return &strideProg{limit: limit} }

func (p *strideProg) Name() string { return "stride" }

func (p *strideProg) Next(in *Instr) bool {
	if p.n >= p.limit {
		return false
	}
	i := p.n
	p.n++
	switch i % 8 {
	case 0, 3:
		*in = Instr{Kind: Load, Addr: i * 24}
	case 5:
		*in = Instr{Kind: Store, Addr: i * 40}
	case 6:
		*in = Instr{Kind: Branch, PC: 0x400000 + i%32*4, Taken: i%3 != 0}
	default:
		*in = Instr{Kind: ALU}
	}
	return true
}

func (p *strideProg) Reset() { p.n = 0 }
