package mori

import (
	"math"
	"testing"

	"scalefree/internal/rng"
)

// treeEvent builds the tree GenerateTree draws from r and reports
// whether every vertex in (a, size] attaches to a vertex <= a.
func treeEvent(t *testing.T, r *rng.RNG, size int, p float64, a int) bool {
	t.Helper()
	tree, err := GenerateTree(r, size, p)
	if err != nil {
		t.Fatal(err)
	}
	for k := a + 1; k <= size; k++ {
		if int(tree.Fathers[k]) > a {
			return false
		}
	}
	return true
}

// TestEventReplayFallback forces the rejection fallback on every rep:
// restoring the saved state and re-running the rep through
// GenerateTreeScratch must give the same bits and leave the RNG where
// GenerateTree does. A real rejection (low product word below the
// bound n) has probability n/2⁶⁴ per draw, too rare to sample.
func TestEventReplayFallback(t *testing.T) {
	for _, tc := range []struct {
		size, a int
		p       float64
	}{
		{270, 255, 0.5},
		{270, 255, 0},
		{270, 255, 1},
		{40, 10, 0.25},
		{2, 1, 0.5},
		{12, 12, 0.75},
	} {
		fast, err := NewEventReplay(tc.size, tc.p, tc.a)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NewEventReplay(tc.size, tc.p, tc.a)
		if err != nil {
			t.Fatal(err)
		}
		slow.forceFallback = true
		rf, rs, rt := rng.New(9), rng.New(9), rng.New(9)
		for i := 0; i < 100; i++ {
			want := treeEvent(t, rt, tc.size, tc.p, tc.a)
			if got := slow.Next(rs); got != want {
				t.Fatalf("%+v rep %d: fallback says %v, tree says %v", tc, i, got, want)
			}
			if got := fast.Next(rf); got != want {
				t.Fatalf("%+v rep %d: replay says %v, tree says %v", tc, i, got, want)
			}
		}
		if f, s, x := rf.Uint64(), rs.Uint64(), rt.Uint64(); f != x || s != x {
			t.Fatalf("%+v: next draws %d (replay), %d (fallback), %d (trees)", tc, f, s, x)
		}
	}
}

// TestScanDrawsFlags feeds hand-made draws to the decoder: a low
// product word below the draw's bound must flag a rejection; an
// all-ones uniform draw attaches window vertex k to k-1, which fails
// the event only once k-1 > a.
func TestScanDrawsFlags(t *testing.T) {
	const a = 5
	e, err := NewEventReplay(9, 0.5, a)
	if err != nil {
		t.Fatal(err)
	}
	thr := e.thresholds // vertices 3..9
	uniform, pref := ^uint64(0), uint64(0)
	draws := func(mod func(k int, d []uint64)) []uint64 {
		ds := make([]uint64, 2*len(thr))
		for k := 3; k <= 9; k++ {
			d := ds[2*(k-3) : 2*(k-3)+2]
			d[0], d[1] = pref, 1<<62+0x9e3779b9 // low word far above any bound
			mod(k, d)
		}
		return ds
	}
	for _, tc := range []struct {
		name          string
		mod           func(k int, d []uint64)
		failed, rejct uint64
	}{
		{"all preferential", func(int, []uint64) {}, 0, 0},
		{"zero draw before the window", func(k int, d []uint64) {
			if k == 4 {
				d[1] = 0
			}
		}, 0, 1},
		{"zero draw in the window", func(k int, d []uint64) {
			if k == 8 {
				d[0], d[1] = uniform, 0
			}
		}, 0, 1},
		// A preferential draw's bound is k-2: these draws leave a low
		// word below k-2, but not below k-1 had the coin been ignored.
		{"preferential rejection before the window", func(k int, d []uint64) {
			if k == 4 {
				d[1] = 1 << 63 // 2·2⁶³ ≡ 0
			}
		}, 0, 1},
		{"preferential rejection in the window", func(k int, d []uint64) {
			if k == 8 {
				d[1] = math.MaxUint64/6 + 1 // 6·d ≡ 2
			}
		}, 0, 1},
		{"uniform to k-1 = a", func(k int, d []uint64) {
			if k == a+1 {
				d[0], d[1] = uniform, ^uint64(0)
			}
		}, 0, 0},
		{"uniform to k-1 > a", func(k int, d []uint64) {
			if k == a+2 {
				d[0], d[1] = uniform, ^uint64(0)
			}
		}, 1, 0},
		{"preferential index above a", func(k int, d []uint64) {
			if k == 9 {
				d[1] = ^uint64(0)
			}
		}, 0, 0},
	} {
		failed, rejected := scanDraws(draws(tc.mod), thr, 3, a)
		if failed != tc.failed || rejected != tc.rejct {
			t.Errorf("%s: failed=%d rejected=%d, want %d %d", tc.name, failed, rejected, tc.failed, tc.rejct)
		}
	}
}

// TestCoinThresholdIsExact checks the integer coin against the float
// one at the threshold's edges: m = thr-1 must take the preferential
// branch and m = thr must not.
func TestCoinThresholdIsExact(t *testing.T) {
	const end = uint64(1) << 53
	for _, p := range []float64{0, 1e-9, 0.1, 0.25, 1.0 / 3, 0.5, 0.75, 0.9, 1 - 1e-12, 1} {
		for _, k := range []int{3, 4, 5, 7, 100, 255, 256, 257, 4095, 4097, 1 << 20, 3<<20 + 1} {
			pref, total := coinMasses(p, k)
			thr := coinThreshold(pref, total)
			if thr > end {
				t.Fatalf("p=%v k=%d: threshold %d beyond 2^53", p, k, thr)
			}
			if thr > 0 && !prefCoin(thr-1, pref, total) {
				t.Errorf("p=%v k=%d: m = thr-1 = %d is not preferential", p, k, thr-1)
			}
			if thr < end && prefCoin(thr, pref, total) {
				t.Errorf("p=%v k=%d: m = thr = %d is preferential", p, k, thr)
			}
			if want := pref / total * (1 << 53); math.Abs(float64(thr)-want) > 16 {
				t.Errorf("p=%v k=%d: threshold %d far from %v", p, k, thr, want)
			}
		}
	}
}

func TestNewEventReplayValidation(t *testing.T) {
	for _, tc := range []struct {
		size, a int
		p       float64
	}{
		{1, 1, 0.5},
		{10, 3, -0.5},
		{10, 3, math.NaN()},
		{10, 0, 0.5},
		{10, 11, 0.5},
	} {
		if _, err := NewEventReplay(tc.size, tc.p, tc.a); err == nil {
			t.Errorf("%+v accepted", tc)
		}
	}
}

// TestEventReplayAllocFree pins the per-rep cost: Next allocates
// nothing.
func TestEventReplayAllocFree(t *testing.T) {
	e, err := NewEventReplay(1000, 0.5, 968)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	if allocs := testing.AllocsPerRun(20, func() { e.Next(r) }); allocs > 0 {
		t.Errorf("Next allocates %v times per rep, want 0", allocs)
	}
}
