package hom

import (
	"wdsparql/internal/rdf"
)

// This file contains ablation variants of the homomorphism solver,
// kept separate from the production path. They quantify the value of
// the fail-first pattern-selection heuristic in the benchmark suite
// (DESIGN.md, ablation benches); production code should use Exists and
// friends.

// ExistsStaticOrder is Exists with the fail-first heuristic disabled:
// patterns are expanded in their given (sorted) order regardless of
// how many matches they admit. Worst-case behaviour is identical; on
// structured instances the ordering heuristic typically wins by large
// factors.
func ExistsStaticOrder(pats []rdf.Triple, g *rdf.Graph) bool {
	assign := rdf.NewMapping()
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(pats) {
			return true
		}
		p := assign.Apply(pats[i])
		for _, t := range g.Match(p) {
			newVars := bindMatch(p, t, assign)
			if rec(i + 1) {
				return true
			}
			for _, v := range newVars {
				delete(assign, v)
			}
		}
		return false
	}
	return rec(0)
}

// bindMatch extends assign with the bindings induced by matching
// pattern p (already µ-substituted) against ground triple t, returning
// the names of newly bound variables for backtracking.
func bindMatch(p, t rdf.Triple, assign rdf.Mapping) []string {
	var newVars []string
	pa, ta := p.Terms(), t.Terms()
	for i := 0; i < 3; i++ {
		if pa[i].IsVar() {
			if _, ok := assign[pa[i].Value]; !ok {
				assign[pa[i].Value] = ta[i].Value
				newVars = append(newVars, pa[i].Value)
			}
		}
	}
	return newVars
}

// CountSearchNodes runs the production solver and returns the number
// of search-tree nodes expanded before the first solution (or
// exhaustion); used by the ablation benchmarks to report work rather
// than only wall time. Every recursion step is a node: the expanded
// ones SearchStats counts plus the leaf of a found solution. A search
// that fails before expanding anything (a constant absent from g)
// still counts its root.
func CountSearchNodes(pats []rdf.Triple, g *rdf.Graph) (found bool, nodes int) {
	var st SearchStats
	solve(pats, g, &st, func(*rdf.SlotLayout, rdf.Row) bool {
		found = true
		return false
	})
	nodes = int(st.Nodes)
	if found {
		nodes++
	}
	return found, max(nodes, 1)
}
