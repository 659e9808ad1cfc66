package graph

import (
	"testing"
	"testing/quick"
)

func buildDiamond() *Digraph {
	g := New()
	g.AddEdge("a", "b")
	g.AddEdge("a", "c")
	g.AddEdge("b", "d")
	g.AddEdge("c", "d")
	return g
}

// numEdges counts edges through the adjacency map.
func numEdges(g *Digraph) int {
	n := 0
	for _, s := range g.succ {
		n += len(s)
	}
	return n
}

func TestNodesAndEdges(t *testing.T) {
	g := buildDiamond()
	if len(g.succ) != 4 {
		t.Fatalf("nodes = %d, want 4", len(g.succ))
	}
	if !g.succ["a"]["b"] || !g.succ["a"]["c"] || g.succ["b"]["a"] {
		t.Fatalf("successors of a = %v", g.succ["a"])
	}
	if numEdges(g) != 4 {
		t.Fatalf("edges = %d", numEdges(g))
	}
	g.AddEdge("a", "b") // duplicate is idempotent
	if numEdges(g) != 4 {
		t.Fatal("duplicate edge counted")
	}
	g.AddNode("isolated")
	if len(g.succ) != 5 || len(g.succ["isolated"]) != 0 {
		t.Fatal("AddNode failed")
	}
	g.AddNode("a") // re-adding keeps the edges
	if numEdges(g) != 4 {
		t.Fatal("AddNode on an existing node dropped its edges")
	}
}

// TestReachability: Path is the reachability test — non-nil exactly
// when to is reachable from from along at least one edge, so Path(x, x)
// is non-nil only when x lies on a cycle.
func TestReachability(t *testing.T) {
	g := buildDiamond()
	if g.Path("a", "d") == nil {
		t.Fatal("a must reach d")
	}
	if g.Path("d", "a") != nil {
		t.Fatal("d must not reach a")
	}
	if g.Path("a", "a") != nil {
		t.Fatal("a is not on a cycle")
	}
	g.AddEdge("d", "a")
	if g.Path("a", "a") == nil {
		t.Fatal("a is on a cycle now")
	}
}

func TestPath(t *testing.T) {
	g := buildDiamond()
	p := g.Path("a", "d")
	if len(p) != 3 || p[0] != "a" || p[2] != "d" {
		t.Fatalf("Path(a,d) = %v", p)
	}
	if p := g.Path("d", "a"); p != nil {
		t.Fatalf("Path(d,a) = %v, want nil", p)
	}
	// Shortest cycle through a node.
	g.AddEdge("d", "a")
	cyc := g.Path("a", "a")
	if len(cyc) < 2 || cyc[0] != "a" || cyc[len(cyc)-1] != "a" {
		t.Fatalf("cycle = %v", cyc)
	}
	// Self-loop: shortest cycle has length 2 (x, x).
	g2 := New()
	g2.AddEdge("x", "x")
	if got := g2.Path("x", "x"); len(got) != 2 {
		t.Fatalf("self-loop path = %v", got)
	}
}

// TestAcyclic: on a DAG no node lies on a cycle, so Path(x, x) is nil
// for every node.
func TestAcyclic(t *testing.T) {
	g := buildDiamond()
	for n := range g.succ {
		if cyc := g.Path(n, n); cyc != nil {
			t.Fatalf("Path(%s,%s) = %v on an acyclic graph", n, n, cyc)
		}
	}
}

// Property: Path(x, x) is a cycle witness — when non-nil it starts and
// ends at x and every consecutive pair is an edge — on random graphs.
func TestCycleWitnessProperty(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f"}
	f := func(edges []uint16) bool {
		g := New()
		for _, e := range edges {
			from := names[int(e)%len(names)]
			to := names[int(e/8)%len(names)]
			g.AddEdge(from, to)
		}
		for _, x := range names {
			cyc := g.Path(x, x)
			if cyc == nil {
				continue
			}
			if len(cyc) < 2 || cyc[0] != x || cyc[len(cyc)-1] != x {
				return false
			}
			for i := 0; i+1 < len(cyc); i++ {
				if !g.succ[cyc[i]][cyc[i+1]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
