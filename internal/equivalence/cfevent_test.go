package equivalence

import (
	"fmt"
	"math"
	"testing"

	"scalefree/internal/cooperfrieze"
	"scalefree/internal/rng"
)

// referenceMonteCarloEventProbCF is MonteCarloEventProbCF as it was
// before the reused scratch: a fresh Generate per rep. The scratch
// version must match it bit for bit, final RNG state included.
func referenceMonteCarloEventProbCF(r *rng.RNG, cfg cooperfrieze.Config, a, reps int) (estimate, stderr float64, err error) {
	if reps < 1 {
		return 0, 0, fmt.Errorf("equivalence: reps = %d < 1", reps)
	}
	if err := validateWindow(a, cfg.N, cfg.N); err != nil {
		return 0, 0, err
	}
	hits := 0
	for i := 0; i < reps; i++ {
		res, err := cfg.Generate(r)
		if err != nil {
			return 0, 0, err
		}
		ok, err := CheckEventCF(res, a, cfg.N)
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

// TestMonteCarloEventProbCFMatchesReference: reusing one scratch
// across reps changes nothing — equal estimate, equal standard error
// and the same RNG state afterwards — across loop rules and
// multi-edge out-degree laws.
func TestMonteCarloEventProbCFMatchesReference(t *testing.T) {
	configs := []cooperfrieze.Config{
		{N: 300, Alpha: 0.9, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true},
		{N: 257, Alpha: 0.7, Beta: 0.3, Gamma: 0.6, Delta: 0.2, AllowLoops: false},
		{N: 200, Alpha: 0.8, Beta: 0.5, Gamma: 0.4, Delta: 0.5, AllowLoops: true,
			QWeights: []float64{1, 2, 1}, PWeights: []float64{3, 1}},
		{N: 180, Alpha: 0.6, Beta: 0.8, Gamma: 0.2, Delta: 0.7, AllowLoops: false,
			QWeights: []float64{0, 1, 1}, PWeights: []float64{1, 1, 1, 1}},
		{N: 64, Alpha: 1, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true},
	}
	for i, cfg := range configs {
		t.Run(fmt.Sprintf("cfg%d", i), func(t *testing.T) {
			a, err := WindowEndingAt(cfg.N)
			if err != nil {
				t.Fatal(err)
			}
			for _, reps := range []int{1, 37} {
				seed := uint64(100*i + reps)
				r1, r2 := rng.New(seed), rng.New(seed)
				est, se, err := MonteCarloEventProbCF(r1, cfg, a, reps)
				if err != nil {
					t.Fatal(err)
				}
				wantEst, wantSE, err := referenceMonteCarloEventProbCF(r2, cfg, a, reps)
				if err != nil {
					t.Fatal(err)
				}
				if est != wantEst || se != wantSE {
					t.Errorf("reps=%d: got %v ± %v, reference %v ± %v", reps, est, se, wantEst, wantSE)
				}
				if got, want := r1.Uint64(), r2.Uint64(); got != want {
					t.Errorf("reps=%d: RNG diverged after the estimate: next draw %#x, reference %#x", reps, got, want)
				}
			}
		})
	}
}

// BenchmarkMonteCarloEventProbCF compares the scratch-reusing Monte
// Carlo with the fresh-generation reference, in ns per generated
// vertex.
func BenchmarkMonteCarloEventProbCF(b *testing.B) {
	const reps = 64
	for _, n := range []int{1 << 9, 1 << 12} {
		cfg := cooperfrieze.Config{N: n, Alpha: 0.8, Beta: 0.5, Gamma: 0.5, Delta: 0.5, AllowLoops: true}
		a, err := WindowEndingAt(n)
		if err != nil {
			b.Fatal(err)
		}
		for _, impl := range []struct {
			name string
			run  func(*rng.RNG, cooperfrieze.Config, int, int) (float64, float64, error)
		}{
			{"scratch", MonteCarloEventProbCF},
			{"reference", referenceMonteCarloEventProbCF},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", impl.name, n), func(b *testing.B) {
				r := rng.New(1)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, err := impl.run(r, cfg, a, reps); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*reps*n), "ns/vertex")
			})
		}
	}
}
