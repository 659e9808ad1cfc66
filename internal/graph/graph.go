// Package graph is a small directed-graph library used by the SDG
// analysis (internal/sdg): witness-path extraction, including the
// shortest cycle through a node.
package graph

// Digraph is a directed graph over string node ids. The zero value is
// not usable; call New.
type Digraph struct {
	succ map[string]map[string]bool
}

// New creates an empty digraph.
func New() *Digraph {
	return &Digraph{succ: make(map[string]map[string]bool)}
}

// AddNode ensures a node exists.
func (g *Digraph) AddNode(id string) {
	if g.succ[id] == nil {
		g.succ[id] = make(map[string]bool)
	}
}

// AddEdge adds a directed edge from → to, creating nodes as needed.
// Self-edges are allowed.
func (g *Digraph) AddEdge(from, to string) {
	g.AddNode(from)
	g.AddNode(to)
	g.succ[from][to] = true
}

// Path returns a shortest path from → to (inclusive of both endpoints,
// following at least one edge), or nil when unreachable. When from == to
// it returns a shortest cycle through the node.
func (g *Digraph) Path(from, to string) []string {
	type step struct {
		node string
		prev int
	}
	steps := []step{}
	seen := make(map[string]bool)
	for s := range g.succ[from] {
		if !seen[s] {
			seen[s] = true
			steps = append(steps, step{s, -1})
		}
	}
	for i := 0; i < len(steps); i++ {
		cur := steps[i]
		if cur.node == to {
			// Reconstruct.
			rev := []string{cur.node}
			for p := cur.prev; p >= 0; p = steps[p].prev {
				rev = append(rev, steps[p].node)
			}
			path := []string{from}
			for j := len(rev) - 1; j >= 0; j-- {
				path = append(path, rev[j])
			}
			return path
		}
		for s := range g.succ[cur.node] {
			if !seen[s] {
				seen[s] = true
				steps = append(steps, step{s, i})
			}
		}
	}
	return nil
}
