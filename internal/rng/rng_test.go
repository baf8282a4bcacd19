package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 100", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	x := s.Uint64()
	y := s.Uint64()
	if x == 0 && y == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("bucket %d: count %d deviates >10%% from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("Norm mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("Norm stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestExpMean(t *testing.T) {
	s := New(17)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(2)
		if v < 0 {
			t.Fatalf("Exp returned negative value %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestPermIsPermutation(t *testing.T) {
	s := New(19)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		vals := make([]int, n)
		for i := range vals {
			vals[i] = i
		}
		New(seed).Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		seen := make([]bool, n)
		for _, v := range vals {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(23)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("sibling children produced %d identical outputs of 100", same)
	}
}

func TestZipfBounds(t *testing.T) {
	z := NewZipf(New(29), 100, 1.1)
	for i := 0; i < 10000; i++ {
		r := z.Next()
		if r < 0 || r >= 100 {
			t.Fatalf("Zipf rank %d out of range", r)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(New(31), 1000, 1.2)
	counts := make([]int, 1000)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[500] {
		t.Fatalf("Zipf not skewed: rank0=%d rank500=%d", counts[0], counts[500])
	}
	if counts[0] < draws/20 {
		t.Fatalf("Zipf rank0 count %d too small for alpha=1.2", counts[0])
	}
}

func TestZipfAlphaZeroUniform(t *testing.T) {
	z := NewZipf(New(37), 10, 0)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	want := float64(draws) / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.1*want {
			t.Fatalf("alpha=0 bucket %d count %d not uniform", i, c)
		}
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(n=0) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1)
}

func TestChildSeedStability(t *testing.T) {
	// The i-th child seed must not depend on how many other children exist.
	s1 := ChildSeed(99, 5)
	s2 := ChildSeed(99, 5)
	if s1 != s2 {
		t.Fatal("ChildSeed not deterministic")
	}
	if ChildSeed(99, 5) == ChildSeed(99, 6) {
		t.Fatal("adjacent child seeds collide")
	}
	if ChildSeed(99, 5) == ChildSeed(100, 5) {
		t.Fatal("child seeds of different parents collide")
	}
}

func TestMul128(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(41)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v", p)
	}
}

func TestRange(t *testing.T) {
	s := New(43)
	for i := 0; i < 10000; i++ {
		v := s.Range(-5, 5)
		if v < -5 || v >= 5 {
			t.Fatalf("Range(-5,5) = %v out of range", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

// zipfSearchRef is the full-table binary search Next used before the
// guide table: the oracle the windowed search must match draw for draw.
func zipfSearchRef(cdf []float64, src *Source) int {
	u := src.Float64()
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func TestZipfGuideMatchesFullSearch(t *testing.T) {
	const draws = 100000
	for _, n := range []int{1, 2, 3, 1000, 1024, 1025, 65536} {
		for _, alpha := range []float64{0, 0.5, 0.9, 1, 1.3, 64} {
			seed := uint64(n)*1000 + uint64(alpha*10)
			z := NewZipf(New(seed), n, alpha)
			if g := len(z.guide) - 1; g&(g-1) != 0 || g > n {
				t.Fatalf("n=%d: guide has %d buckets, want a power of two <= n", n, g)
			}
			ref := New(seed)
			for i := 0; i < draws; i++ {
				if got, want := z.Next(), zipfSearchRef(z.cdf, ref); got != want {
					t.Fatalf("n=%d alpha=%v draw %d: rank %d, full search %d", n, alpha, i, got, want)
				}
			}
			if z.src.Uint64() != ref.Uint64() {
				t.Fatalf("n=%d alpha=%v: streams diverged after %d draws", n, alpha, draws)
			}
		}
	}
}

func BenchmarkZipfNext(b *testing.B) {
	for _, c := range []struct {
		name  string
		n     int
		alpha float64
	}{
		{"pages_64k_a1.1", 1 << 16, 1.1},
		// A stock-suite size, from the SPEC'17 model; the stock six
		// draw from 512–65,536 pages at alpha 0.5–1.1.
		{"pages_24k_a0.7", 24576, 0.7},
	} {
		b.Run(c.name, func(b *testing.B) {
			z := NewZipf(New(1), c.n, c.alpha)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				z.Next()
			}
		})
	}
}
