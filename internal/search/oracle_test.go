package search

import (
	"testing"

	"scalefree/internal/graph"
	"scalefree/internal/rng"
)

// pathGraph returns the path 1-2-...-n (edges oriented k+1 -> k).
func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, n-1)
	b.AddVertices(n)
	for v := 2; v <= n; v++ {
		b.AddEdge(graph.Vertex(v), graph.Vertex(v-1))
	}
	return b.Freeze()
}

// starGraph returns a star with the hub as vertex 1 and n-1 leaves.
func starGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n, n-1)
	b.AddVertices(n)
	for v := 2; v <= n; v++ {
		b.AddEdge(graph.Vertex(v), 1)
	}
	return b.Freeze()
}

func TestNewOracleValidation(t *testing.T) {
	g := pathGraph(5)
	cases := []struct {
		name          string
		start, target graph.Vertex
		k             Knowledge
	}{
		{"bad model", 1, 2, Knowledge(0)},
		{"start zero", 0, 2, Weak},
		{"start high", 6, 2, Weak},
		{"target zero", 1, 0, Weak},
		{"target high", 1, 6, Strong},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewOracle(g, tc.start, tc.target, tc.k); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestOracleStartEqualsTarget(t *testing.T) {
	g := pathGraph(3)
	for _, k := range []Knowledge{Weak, Strong} {
		o, err := NewOracle(g, 2, 2, k)
		if err != nil {
			t.Fatal(err)
		}
		if !o.Found() || o.Requests() != 0 {
			t.Errorf("%v: found=%v requests=%d, want immediate success", k, o.Found(), o.Requests())
		}
		path, err := o.FoundPath()
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != 1 || path[0] != 2 {
			t.Errorf("%v: path = %v", k, path)
		}
	}
}

func TestWeakRequestEdgeProtocol(t *testing.T) {
	g := pathGraph(4)
	o, err := NewOracle(g, 2, 4, Weak)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := o.RequestEdge(3, 0); err == nil {
		t.Error("request on undiscovered vertex accepted")
	}
	if _, _, err := o.RequestEdge(2, -1); err == nil {
		t.Error("negative slot accepted")
	}
	if _, _, err := o.RequestEdge(2, 2); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, _, err := o.RequestVertex(2); err == nil {
		t.Error("RequestVertex accepted in weak model")
	}

	// Vertex 2's slots: slot 0 is its out-edge to 1, slot 1 the in-edge
	// from 3.
	v, newInfo, err := o.RequestEdge(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || !newInfo {
		t.Fatalf("RequestEdge(2,0) = (%d, %v)", v, newInfo)
	}
	if o.Requests() != 1 {
		t.Fatalf("requests = %d, want 1", o.Requests())
	}

	// Re-reading the same slot is free.
	v, newInfo, err = o.RequestEdge(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || newInfo || o.Requests() != 1 {
		t.Fatalf("re-read = (%d, %v), requests %d; want cached", v, newInfo, o.Requests())
	}

	// The answer revealed vertex 1's edge list, and the searcher can
	// identify the connecting edge: vertex 1's slot for that edge must
	// be resolved to 2.
	view, ok := o.ViewOf(1)
	if !ok {
		t.Fatal("vertex 1 not discovered")
	}
	if view.Degree != 1 || view.Resolved[0] != 2 || view.Unresolved != 0 {
		t.Fatalf("view of 1 = %+v", view)
	}
}

func TestWeakFoundAndPath(t *testing.T) {
	g := pathGraph(4)
	o, err := NewOracle(g, 1, 4, Weak)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.FoundPath(); err == nil {
		t.Error("FoundPath before found should error")
	}
	// Walk up the path: 1 -> 2 -> 3 -> 4.
	cur := graph.Vertex(1)
	for !o.Found() {
		view, _ := o.ViewOf(cur)
		slot := -1
		for s, w := range view.Resolved {
			if w == graph.NoVertex {
				slot = s
				break
			}
		}
		if slot == -1 {
			t.Fatalf("no unresolved slot at %d", cur)
		}
		next, _, err := o.RequestEdge(cur, slot)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	if o.Requests() != 3 {
		t.Errorf("requests = %d, want 3", o.Requests())
	}
	path, err := o.FoundPath()
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.Vertex{1, 2, 3, 4}
	if len(path) != 4 {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestWeakSelfLoopResolvesBothHalves(t *testing.T) {
	b := graph.NewBuilder(2, 2)
	b.AddVertices(2)
	b.AddEdge(1, 1)
	b.AddEdge(2, 1)
	g := b.Freeze()
	o, err := NewOracle(g, 1, 2, Weak)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 1 has 3 slots: two halves of the loop plus the edge from 2.
	view, _ := o.ViewOf(1)
	if view.Degree != 3 {
		t.Fatalf("degree of 1 = %d", view.Degree)
	}
	v, _, err := o.RequestEdge(1, 0) // a loop half
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("loop request returned %d", v)
	}
	if view.Resolved[0] != 1 || view.Resolved[1] != 1 {
		t.Fatalf("loop halves not both resolved: %v", view.Resolved)
	}
	if view.Unresolved != 1 {
		t.Fatalf("unresolved = %d, want 1", view.Unresolved)
	}
	if o.Found() {
		t.Fatal("loop revealed no new vertex; target cannot be found")
	}
}

func TestWeakParallelEdgesResolveIndependently(t *testing.T) {
	b := graph.NewBuilder(2, 2)
	b.AddVertices(2)
	b.AddEdge(2, 1)
	b.AddEdge(2, 1)
	g := b.Freeze()
	o, err := NewOracle(g, 1, 2, Weak)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.RequestEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	// Vertex 2 is now discovered; exactly one of its two slots (the one
	// carrying the requested edge) must be resolved.
	view, _ := o.ViewOf(2)
	resolved := 0
	for _, w := range view.Resolved {
		if w != graph.NoVertex {
			resolved++
		}
	}
	if resolved != 1 || view.Unresolved != 1 {
		t.Fatalf("parallel edge views: %+v", view)
	}
	// Vertex 1's other slot is still unresolved.
	v1, _ := o.ViewOf(1)
	if v1.Unresolved != 1 {
		t.Fatalf("vertex 1 unresolved = %d, want 1", v1.Unresolved)
	}
}

func TestStrongProtocol(t *testing.T) {
	g := starGraph(5)
	o, err := NewOracle(g, 2, 4, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.RequestEdge(2, 0); err == nil {
		t.Error("RequestEdge accepted in strong model")
	}
	if _, _, err := o.RequestVertex(1); err == nil {
		t.Error("request on non-visible vertex accepted")
	}
	if got := o.Visible(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("initial frontier = %v", got)
	}

	// Request the start: reveals the hub.
	ns, newInfo, err := o.RequestVertex(2)
	if err != nil {
		t.Fatal(err)
	}
	if !newInfo || len(ns) != 1 || ns[0] != 1 {
		t.Fatalf("neighbors of 2 = %v (new %v)", ns, newInfo)
	}
	if o.Requests() != 1 {
		t.Fatalf("requests = %d", o.Requests())
	}
	if !o.IsVisible(1) {
		t.Fatal("hub should be visible")
	}
	// The hub's degree is known once visible.
	hub, ok := o.ViewOf(1)
	if !ok || hub.Degree != 4 {
		t.Fatalf("hub view = %+v", hub)
	}

	// Requesting the hub reveals all leaves, including the target.
	ns, _, err = o.RequestVertex(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ns) != 4 {
		t.Fatalf("hub neighbors = %v", ns)
	}
	if !o.Found() {
		t.Fatal("target visible but not found")
	}
	if o.Requests() != 2 {
		t.Fatalf("requests = %d, want 2", o.Requests())
	}
	path, err := o.FoundPath()
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 || path[0] != 2 || path[1] != 1 || path[2] != 4 {
		t.Fatalf("path = %v", path)
	}

	// Re-requesting a discovered vertex is free.
	_, newInfo, err = o.RequestVertex(2)
	if err != nil {
		t.Fatal(err)
	}
	if newInfo || o.Requests() != 2 {
		t.Fatal("re-request of discovered vertex was not free")
	}
}

func TestStrongFrontierShrinks(t *testing.T) {
	g := pathGraph(5)
	o, err := NewOracle(g, 3, 5, Strong)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.RequestVertex(3); err != nil {
		t.Fatal(err)
	}
	// Frontier: 2 and 4.
	front := o.Visible()
	if len(front) != 2 {
		t.Fatalf("frontier = %v", front)
	}
	if o.IsVisible(3) {
		t.Fatal("requested vertex still visible")
	}
	if _, _, err := o.RequestVertex(4); err != nil {
		t.Fatal(err)
	}
	if !o.Found() {
		t.Fatal("target 5 should be visible after requesting 4")
	}
}

func TestViewSharedStateIsConsistent(t *testing.T) {
	g := pathGraph(3)
	o, err := NewOracle(g, 1, 3, Weak)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o.ViewOf(99); ok {
		t.Error("view of unknown vertex reported ok")
	}
	if _, _, err := o.RequestEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if got := len(o.Discovered()); got != 2 {
		t.Fatalf("discovered = %d, want 2", got)
	}
}

// TestWeakLookupsMatchLinearReference drives random weak-model request
// sequences over multigraphs with self-loops and parallel edges, and
// checks the oracle's O(log deg) paths against linear scans: every
// view's resolved slots against a reference that finds reverse halves
// by scanning the whole incidence list, and UnresolvedSlot(k) against
// the k-th unresolved slot counted from slot 0.
func TestWeakLookupsMatchLinearReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		n := 2 + r.Intn(20)
		b := graph.NewBuilder(n, 4*n)
		b.AddVertices(n)
		for e := 0; e < 4*n; e++ {
			u := graph.Vertex(1 + r.Intn(n))
			v := graph.Vertex(1 + r.Intn(n))
			if r.Bernoulli(0.3) {
				v = 1 // a hub collecting parallel edges
			}
			if r.Bernoulli(0.1) {
				v = u
			}
			b.AddEdge(u, v)
		}
		g := b.Freeze()
		o, err := NewOracleShuffled(g, 1, graph.Vertex(n), Weak, seed)
		if err != nil {
			t.Fatal(err)
		}
		want := map[graph.Vertex][]graph.Vertex{}
		expect := func(v graph.Vertex) []graph.Vertex {
			if want[v] == nil {
				want[v] = make([]graph.Vertex, g.Degree(v))
			}
			return want[v]
		}
		expect(1)
		for step := 0; step < 8*n; step++ {
			u := o.Discovered()[r.Intn(len(o.Discovered()))]
			if g.Degree(u) == 0 {
				continue
			}
			slot := r.Intn(g.Degree(u))
			v, _, err := o.RequestEdge(u, slot)
			if err != nil {
				t.Fatal(err)
			}
			e := g.HalfAt(u, o.physSlot(u, slot)).Edge
			expect(u)[slot] = v
			for phys, h := range g.Incident(v) {
				if h.Edge == e {
					expect(v)[o.visSlot(v, phys)] = u
				}
			}
			for w, res := range want {
				view, ok := o.ViewOf(w)
				if !ok {
					t.Fatalf("seed %d: vertex %d has no view", seed, w)
				}
				var fresh []int
				for s, x := range res {
					if view.Resolved[s] != x {
						t.Fatalf("seed %d step %d: vertex %d slot %d = %d, linear reference %d",
							seed, step, w, s, view.Resolved[s], x)
					}
					if x == graph.NoVertex {
						fresh = append(fresh, s)
					}
				}
				if view.Unresolved != len(fresh) {
					t.Fatalf("seed %d: vertex %d Unresolved = %d, want %d", seed, w, view.Unresolved, len(fresh))
				}
				for k, s := range fresh {
					if got := view.UnresolvedSlot(k); got != s {
						t.Fatalf("seed %d: vertex %d UnresolvedSlot(%d) = %d, want %d", seed, w, k, got, s)
					}
				}
				if view.UnresolvedSlot(-1) != -1 || view.UnresolvedSlot(len(fresh)) != -1 {
					t.Fatalf("seed %d: vertex %d UnresolvedSlot out of range did not return -1", seed, w)
				}
			}
		}
	}
}
