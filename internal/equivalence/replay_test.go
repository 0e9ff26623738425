package equivalence

import (
	"fmt"
	"math"
	"testing"

	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

// referenceMonteCarloEventProb is MonteCarloEventProb as it was before
// the replay: build every tree with mori.GenerateTree and check it. The
// replay must match it bit for bit, final RNG state included.
func referenceMonteCarloEventProb(r *rng.RNG, p float64, a, b, reps int) (estimate, stderr float64, err error) {
	if reps < 1 {
		return 0, 0, fmt.Errorf("equivalence: reps = %d < 1", reps)
	}
	if err := validateWindow(a, b, b); err != nil {
		return 0, 0, err
	}
	hits := 0
	for i := 0; i < reps; i++ {
		t, err := mori.GenerateTree(r, b, p)
		if err != nil {
			return 0, 0, err
		}
		ok, err := CheckEvent(t, a, b)
		if err != nil {
			return 0, 0, err
		}
		if ok {
			hits++
		}
	}
	ph := float64(hits) / float64(reps)
	return ph, math.Sqrt(ph * (1 - ph) / float64(reps)), nil
}

type replayWindow struct{ a, b int }

// replayWindows returns the differential tests' windows: the canonical
// Window(n) for small and E4-sized targets, the smallest window (1, 2]
// and an empty one (a = b).
func replayWindows(t testing.TB) []replayWindow {
	t.Helper()
	var ws []replayWindow
	for _, n := range []int{3, 4, 5, 256, 4096} {
		a, b, err := Window(n)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, replayWindow{a, b})
	}
	return append(ws, replayWindow{1, 2}, replayWindow{12, 12}, replayWindow{2, 2})
}

var replayPs = []float64{0, 0.25, 0.5, 0.75, 1}

// TestEventReplayMatchesReference checks the replay rep by rep: each
// Next must report the event bit of the tree GenerateTree draws from
// the same state, and the two RNGs must agree afterwards.
func TestEventReplayMatchesReference(t *testing.T) {
	for _, w := range replayWindows(t) {
		reps := 200
		if w.b > 1000 {
			reps = 12
		}
		for _, p := range replayPs {
			for seed := uint64(1); seed <= 3; seed++ {
				replay, err := mori.NewEventReplay(w.b, p, w.a)
				if err != nil {
					t.Fatal(err)
				}
				got, want := rng.New(seed), rng.New(seed)
				hits := 0
				for i := 0; i < reps; i++ {
					tree, err := mori.GenerateTree(want, w.b, p)
					if err != nil {
						t.Fatal(err)
					}
					exp, err := CheckEvent(tree, w.a, w.b)
					if err != nil {
						t.Fatal(err)
					}
					if replay.Next(got) != exp {
						t.Fatalf("a=%d b=%d p=%v seed=%d rep %d: replay says %v, tree says %v",
							w.a, w.b, p, seed, i, !exp, exp)
					}
					if exp {
						hits++
					}
				}
				if g, x := got.Uint64(), want.Uint64(); g != x {
					t.Fatalf("a=%d b=%d p=%v seed=%d: next draw %d after replay, %d after trees",
						w.a, w.b, p, seed, g, x)
				}
				// Where the event is random (p < 1 and at least two
				// window vertices), both outcomes must show up.
				if w.b-w.a >= 2 && p < 1 && reps >= 200 && (hits == 0 || hits == reps) {
					t.Errorf("a=%d b=%d p=%v seed=%d: %d/%d hits, event never varied", w.a, w.b, p, seed, hits, reps)
				}
			}
		}
	}
}

func TestMonteCarloEventProbMatchesReference(t *testing.T) {
	for _, w := range replayWindows(t) {
		reps := 300
		if w.b > 1000 {
			reps = 20
		}
		for _, p := range replayPs {
			for seed := uint64(1); seed <= 3; seed++ {
				got, want := rng.New(seed), rng.New(seed)
				est, se, err := MonteCarloEventProb(got, p, w.a, w.b, reps)
				if err != nil {
					t.Fatal(err)
				}
				wantEst, wantSE, err := referenceMonteCarloEventProb(want, p, w.a, w.b, reps)
				if err != nil {
					t.Fatal(err)
				}
				if est != wantEst || se != wantSE {
					t.Fatalf("a=%d b=%d p=%v seed=%d: replay %v ± %v, reference %v ± %v",
						w.a, w.b, p, seed, est, se, wantEst, wantSE)
				}
				if g, x := got.Uint64(), want.Uint64(); g != x {
					t.Fatalf("a=%d b=%d p=%v seed=%d: RNG states differ after the run", w.a, w.b, p, seed)
				}
			}
		}
	}
}

// FuzzMonteCarloEventProb checks the replay against the reference loop
// on fuzzed small windows: same estimate, same error, same RNG state
// afterwards. The seed corpus is E4's p grid on its Lemma-2 windows and
// on the canonical windows that fit.
func FuzzMonteCarloEventProb(f *testing.F) {
	for _, p := range []float64{0.25, 0.5, 0.75, 1} {
		for _, w := range [][2]uint8{{2, 5}, {3, 6}, {4, 7}, {2, 3}, {56, 63}} {
			f.Add(uint64(300), p, w[0], w[1], uint8(8))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, p float64, aRaw, bRaw, repsRaw uint8) {
		a := 1 + int(aRaw)%64
		b := a + int(bRaw)%(65-a)
		reps := 1 + int(repsRaw)%8
		got, want := rng.New(seed), rng.New(seed)
		est, se, err := MonteCarloEventProb(got, p, a, b, reps)
		wantEst, wantSE, wantErr := referenceMonteCarloEventProb(want, p, a, b, reps)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("p=%v a=%d b=%d reps=%d: error %v, reference %v", p, a, b, reps, err, wantErr)
		}
		if est != wantEst || se != wantSE {
			t.Fatalf("p=%v a=%d b=%d reps=%d: replay %v ± %v, reference %v ± %v", p, a, b, reps, est, se, wantEst, wantSE)
		}
		if g, x := got.Uint64(), want.Uint64(); g != x {
			t.Fatalf("p=%v a=%d b=%d reps=%d: RNG states differ after the run", p, a, b, reps)
		}
	})
}

// BenchmarkMonteCarloEventProb prices one Monte Carlo rep per window
// vertex count b, replay against the tree-building reference, on E4's
// canonical windows. ns/vertex should stay flat in n.
func BenchmarkMonteCarloEventProb(b *testing.B) {
	const reps = 256
	for _, n := range []int{1 << 8, 1 << 12, 1 << 14} {
		a, bw, err := Window(n)
		if err != nil {
			b.Fatal(err)
		}
		for _, impl := range []struct {
			name string
			run  func(*rng.RNG, float64, int, int, int) (float64, float64, error)
		}{
			{"replay", MonteCarloEventProb},
			{"reference", referenceMonteCarloEventProb},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", impl.name, n), func(b *testing.B) {
				r := rng.New(1)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := impl.run(r, 0.5, a, bw, reps); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*reps*bw), "ns/vertex")
			})
		}
	}
}
