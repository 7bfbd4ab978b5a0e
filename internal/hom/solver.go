package hom

import (
	"wdsparql/internal/rdf"
)

// This file is the string-level face of the homomorphism solver: the
// Mapping- and t-graph-shaped entry points the paper's algorithms are
// written against (the natural evaluation of Lemma 1, the width
// measures' hom-equivalence tests, the p-CLIQUE reduction). Each one
// compiles its patterns against a fresh slot layout and runs one
// RowSearcher (rows.go) in its default fail-first mode; strings are
// only touched when a found row is decoded into an rdf.Mapping.
//
// Deciding the existence of a homomorphism is NP-complete in general
// (Chandra–Merlin); this solver is the exact (exponential worst-case)
// procedure that the paper's "natural algorithm" for wdPF evaluation
// relies on, and the baseline that the existential-pebble-game
// relaxation of internal/pebble is compared against.

// solve enumerates the homomorphisms from pats to g: yield sees each
// one as a row under layout (valid only during the call) and returns
// false to stop. stats, when non-nil, collects the search effort.
func solve(pats []rdf.Triple, g *rdf.Graph, stats *SearchStats, yield func(layout *rdf.SlotLayout, row rdf.Row) bool) {
	one := new(struct { // one allocation for the layout, program and searcher
		layout rdf.SlotLayout
		prog   RowProgram
		s      RowSearcher
	})
	layout := &one.layout
	one.prog.compile(pats, g, layout)
	one.prog.initSearcher(&one.s)
	one.s.stats = stats
	row := layout.NewRow()
	one.s.Run(row, func() bool { return yield(layout, row) })
}

// Exists reports whether there is a homomorphism h with
// dom(h) = vars(pats) such that h(t) ∈ g for every t ∈ pats.
// IRIs map to themselves; an empty pattern set admits the empty
// homomorphism.
func Exists(pats []rdf.Triple, g *rdf.Graph) bool {
	found := false
	solve(pats, g, nil, func(*rdf.SlotLayout, rdf.Row) bool {
		found = true
		return false
	})
	return found
}

// ExistsExtending reports whether there is a homomorphism from pats to
// g that extends µ, i.e. the paper's (S, dom(µ)) →µ G. It first
// applies µ to the patterns and then searches for the remaining
// variables.
func ExistsExtending(pats []rdf.Triple, mu rdf.Mapping, g *rdf.Graph) bool {
	return Exists(mu.ApplyAll(pats), g)
}

// Find returns a homomorphism from pats to g if one exists. The
// returned mapping binds exactly vars(pats).
func Find(pats []rdf.Triple, g *rdf.Graph) (rdf.Mapping, bool) {
	found := FindAll(pats, g, 1)
	if len(found) == 0 {
		return nil, false
	}
	return found[0], true
}

// FindAll returns all homomorphisms from pats to g, up to limit
// (limit ≤ 0 means no limit). The result contains no duplicates.
func FindAll(pats []rdf.Triple, g *rdf.Graph, limit int) []rdf.Mapping {
	var out []rdf.Mapping
	solve(pats, g, nil, func(layout *rdf.SlotLayout, row rdf.Row) bool {
		out = append(out, layout.DecodeRow(g.Dict(), row))
		return limit <= 0 || len(out) < limit
	})
	return out
}

// Hom reports whether (from) → (to) holds for generalised t-graphs
// sharing the distinguished set X: a homomorphism from from.S to to.S
// that fixes every variable of from.X (Section 3 of the paper).
func Hom(from, to GTGraph) bool {
	return Exists(freezeSource(from), Freeze(to.S))
}

// FindHom returns a witnessing homomorphism for (from) → (to) as a
// partial function from the variables of from.S to terms of to.S.
// Distinguished variables are included, mapped to themselves.
func FindHom(from, to GTGraph) (map[rdf.Term]rdf.Term, bool) {
	h, ok := Find(freezeSource(from), Freeze(to.S))
	if !ok {
		return nil, false
	}
	out := map[rdf.Term]rdf.Term{}
	for _, v := range from.S.Vars() {
		if from.IsDistinguished(v) {
			out[v] = v
			continue
		}
		img, bound := h.Lookup(v)
		if !bound {
			// Variable absent from the frozen search (cannot happen
			// for vars(S), every variable occurs in a triple).
			out[v] = v
			continue
		}
		out[v] = ThawTerm(img)
	}
	return out, true
}

// Equivalent reports homomorphic equivalence (from) ⇆ (to).
func Equivalent(a, b GTGraph) bool {
	return Hom(a, b) && Hom(b, a)
}
