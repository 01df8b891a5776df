package verify

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// dl3Graph is a hand-built explored graph: per-node counters (submitted,
// delivered, clean frontier) and the full edge list, in exploration order.
// want pins the candidates in clean and stabilize mode, where worked out by
// hand.
type dl3Graph struct {
	name  string
	nodes [][3]int32
	edges [][2]int32
	want  *[2][]int32
}

// naiveStranded is the reference for strandedCandidates: per-node reverse
// adjacency lists over the full edge list, seeded from every progress edge.
func naiveStranded(g dl3Graph, stabilize bool) []int32 {
	n := len(g.nodes)
	good := make([]bool, n)
	radj := make([][]int32, n)
	var stack []int32
	for _, ed := range g.edges {
		from, to := ed[0], ed[1]
		radj[to] = append(radj[to], from)
		progress := g.nodes[to][1] > g.nodes[from][1]
		if stabilize {
			progress = g.nodes[to][2] > g.nodes[from][2]
		}
		if progress && !good[from] {
			good[from] = true
			stack = append(stack, from)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range radj[v] {
			if !good[u] {
				good[u] = true
				stack = append(stack, u)
			}
		}
	}
	var out []int32
	for id, nc := range g.nodes {
		stranded := nc[0] > nc[1]
		if stabilize {
			stranded = nc[0] > nc[2]
		}
		if !good[id] && stranded {
			out = append(out, int32(id))
		}
	}
	return out
}

// randomDL3Graph draws n nodes and m edges, with self-loops and parallel
// edges among them.
func randomDL3Graph(rng *rand.Rand, n, m int) dl3Graph {
	g := dl3Graph{name: fmt.Sprintf("random-%d-%d", n, m)}
	for i := 0; i < n; i++ {
		sub := rng.Int31n(4)
		del := rng.Int31n(sub + 1)
		g.nodes = append(g.nodes, [3]int32{sub, del, rng.Int31n(del + 1)})
	}
	for len(g.edges) < m {
		from := rng.Int31n(int32(n))
		switch r := rng.Intn(10); {
		case r == 0:
			g.edges = append(g.edges, [2]int32{from, from})
		case r == 1 && len(g.edges) > 0:
			g.edges = append(g.edges, g.edges[rng.Intn(len(g.edges))])
		default:
			g.edges = append(g.edges, [2]int32{from, rng.Int31n(int32(n))})
		}
	}
	return g
}

// TestStrandedCandidatesReference holds the CSR reverse graph to a naive
// reference, per-node adjacency lists over the full edge list, on
// hand-built graphs in clean and stabilize mode. The explorer records each graph's edges the way visit
// does (explorer.edge), so self-loops and progress edges are folded away
// before strandedCandidates sees them, and the reference sees every edge.
func TestStrandedCandidatesReference(t *testing.T) {
	graphs := []dl3Graph{
		{
			// 0 → 1 → 2 delivers; 3 strands behind a self-loop and a
			// parallel pair into a stranded sink 4; 5 ↔ 6 is a cycle with an
			// exit into the progress chain.
			name:  "mixed",
			nodes: [][3]int32{{1, 0, 0}, {1, 0, 0}, {1, 1, 1}, {2, 1, 1}, {2, 1, 1}, {1, 0, 0}, {1, 0, 0}},
			edges: [][2]int32{{0, 1}, {1, 2}, {3, 3}, {3, 4}, {3, 4}, {4, 4}, {5, 6}, {6, 5}, {6, 1}, {5, 5}},
			want:  &[2][]int32{{3, 4}, {3, 4}},
		},
		{
			// A stranded cycle with no way out, and a sink reached from it.
			name:  "trapped-cycle",
			nodes: [][3]int32{{1, 0, 0}, {1, 0, 0}, {1, 0, 0}, {2, 0, 0}},
			edges: [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {2, 3}, {3, 3}},
			want:  &[2][]int32{{0, 1, 2, 3}, {0, 1, 2, 3}},
		},
		{
			// 0 → 3 → 4 delivers without advancing the clean frontier:
			// progress in clean mode, garbage in stabilize mode.
			name:  "garbage-deliveries",
			nodes: [][3]int32{{2, 0, 0}, {2, 1, 1}, {2, 2, 2}, {2, 1, 0}, {2, 2, 0}},
			edges: [][2]int32{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {4, 4}, {3, 3}, {4, 3}},
			want:  &[2][]int32{nil, {3, 4}},
		},
	}
	rng := rand.New(rand.NewSource(1))
	for _, nm := range [][2]int{{10, 20}, {70, 150}, {200, 300}, {500, 2000}, {3000, 9000}} {
		for i := 0; i < 4; i++ {
			graphs = append(graphs, randomDL3Graph(rng, nm[0], nm[1]))
		}
	}
	for _, g := range graphs {
		for _, stabilize := range []bool{false, true} {
			e := &explorer{cfg: Config{Stabilize: stabilize}}
			for _, nc := range g.nodes {
				e.keys.push(intKey{sub: nc[0], del: nc[1], gfro: nc[2]})
			}
			for _, ed := range g.edges {
				e.edge(ed[0], ed[1])
			}
			if e.nedges != len(g.edges) {
				t.Fatalf("%s (stabilize %v): %d edges counted, want %d", g.name, stabilize, e.nedges, len(g.edges))
			}
			got, want := e.strandedCandidates(), naiveStranded(g, stabilize)
			if !slices.Equal(got, want) {
				t.Fatalf("%s (stabilize %v): candidates %v, want %v", g.name, stabilize, got, want)
			}
			if mode := 0; g.want != nil {
				if stabilize {
					mode = 1
				}
				if !slices.Equal(want, g.want[mode]) {
					t.Fatalf("%s (stabilize %v): reference candidates %v, worked out by hand %v", g.name, stabilize, want, g.want[mode])
				}
			}
		}
	}
}
