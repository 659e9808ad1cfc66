// Package graph is a small directed-graph library used by the SDG
// analysis (internal/sdg): reachability, cycle detection, strongly
// connected components, and witness-path extraction.
package graph

import "sort"

// Digraph is a directed graph over string node ids. The zero value is
// not usable; call New.
type Digraph struct {
	nodes map[string]bool
	succ  map[string]map[string]bool
}

// New creates an empty digraph.
func New() *Digraph {
	return &Digraph{
		nodes: make(map[string]bool),
		succ:  make(map[string]map[string]bool),
	}
}

// AddNode ensures a node exists.
func (g *Digraph) AddNode(id string) {
	if !g.nodes[id] {
		g.nodes[id] = true
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

// HasEdge reports whether the edge exists.
func (g *Digraph) HasEdge(from, to string) bool {
	return g.succ[from] != nil && g.succ[from][to]
}

// Nodes returns all node ids in sorted order.
func (g *Digraph) Nodes() []string {
	out := make([]string, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Succ returns the successors of id in sorted order.
func (g *Digraph) Succ(id string) []string {
	out := make([]string, 0, len(g.succ[id]))
	for n := range g.succ[id] {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumEdges counts edges.
func (g *Digraph) NumEdges() int {
	n := 0
	for _, s := range g.succ {
		n += len(s)
	}
	return n
}

// Reachable reports whether `to` is reachable from `from` following one
// or more edges (so Reachable(x, x) is true only if x lies on a cycle).
func (g *Digraph) Reachable(from, to string) bool {
	seen := make(map[string]bool)
	stack := make([]string, 0, 8)
	for s := range g.succ[from] {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n == to {
			return true
		}
		if seen[n] {
			continue
		}
		seen[n] = true
		for s := range g.succ[n] {
			stack = append(stack, s)
		}
	}
	return false
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

// SCCs returns the strongly connected components (Tarjan), each sorted,
// with the list ordered by each component's smallest element. Components
// of size one are included only if the node has a self-edge.
func (g *Digraph) SCCs() [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var comps [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for w := range g.succ[v] {
			if _, visited := index[w]; !visited {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 || g.HasEdge(v, v) {
				sort.Strings(comp)
				comps = append(comps, comp)
			}
		}
	}
	for _, v := range g.Nodes() {
		if _, visited := index[v]; !visited {
			strongconnect(v)
		}
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps
}

// HasCycle reports whether the graph contains any cycle.
func (g *Digraph) HasCycle() bool { return len(g.SCCs()) > 0 }

// FindCycle returns one witness cycle as a node sequence whose last
// element equals the first, or nil when acyclic.
func (g *Digraph) FindCycle() []string {
	sccs := g.SCCs()
	if len(sccs) == 0 {
		return nil
	}
	start := sccs[0][0]
	cyc := g.Path(start, start)
	return cyc
}

// Clone returns a deep copy.
func (g *Digraph) Clone() *Digraph {
	c := New()
	for n := range g.nodes {
		c.AddNode(n)
	}
	for from, tos := range g.succ {
		for to := range tos {
			c.AddEdge(from, to)
		}
	}
	return c
}
