package search

import (
	"fmt"
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/mori"
	"scalefree/internal/rng"
)

// BenchmarkOracleRequest reports the CPU cost of one paid request,
// ns/request, for every weak-model algorithm searching a hub-heavy
// Móri graph (m=2, p=0.9: the largest hub has degree about n^0.9) from
// vertex 1 for vertex n under a budget of n requests. Each iteration
// is one search through a warm Scratch. An O(deg) request path would
// make the metric grow with the hub degree, ~16× from n=2^12 to
// n=2^16; with O(log deg) requests it grows far less (cache misses).
// -short runs n=2^10 only.
func BenchmarkOracleRequest(b *testing.B) {
	sizes := []int{1 << 12, 1 << 16}
	if testing.Short() {
		sizes = []int{1 << 10}
	}
	for _, n := range sizes {
		g, err := mori.Config{N: n, M: 2, P: 0.9}.Generate(rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		for _, alg := range WeakAlgorithms() {
			b.Run(fmt.Sprintf("%s/n=%d", alg.Name(), n), func(b *testing.B) {
				var s Scratch
				var r rng.RNG
				requests := 0
				for i := 0; i < b.N; i++ {
					o, err := NewOracleShuffledScratch(g, 1, graph.Vertex(n), Weak, uint64(i), &s)
					if err != nil {
						b.Fatal(err)
					}
					r.Reseed(uint64(i))
					res, err := alg.Search(o, &r, n)
					if err != nil {
						b.Fatal(err)
					}
					requests += res.Requests
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(requests, 1)), "ns/request")
			})
		}
	}
}
