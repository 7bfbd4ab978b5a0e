// Package plan implements the compile-time join-order planner.
//
// The planner runs once, at Prepare time, and orders the triple
// patterns of one BGP (one wdPT node's RowProgram) most-restrictive-
// first with bound-slot propagation: after a pattern is placed, every
// variable slot it mentions counts as bound for the remaining
// patterns, and a pattern whose subject slot just got bound is
// re-costed as subject-bound. The cost model is built entirely from
// statistics the storage backends answer in O(1) or one galloping
// probe — exact posting-list cardinalities from the CSR offsets
// (Graph.MatchCountID on a constants-only skeleton) divided by
// distinct-key domain sizes (Graph.DistinctCount /
// Graph.DistinctUnderPredicate) per bound variable position — so
// compiling a plan costs a handful of index probes per pattern pair
// and never scans data.
//
// Everything here is deterministic: candidate patterns are examined in
// index order, ties break toward the lowest original index, and no map
// iteration feeds into an ordering decision. The runtime (internal/hom)
// decides how literally to follow the plan; see the SearchMode values
// there for the determinism contract.
package plan

import "wdsparql/internal/rdf"

// Pattern is one triple pattern in compiled form, mirroring the hom
// package's cpat encoding: Code[i] ≥ 0 is a variable layout slot,
// Code[i] < 0 encodes the constant IRI TermID ^Code[i].
type Pattern struct{ Code [3]int32 }

// iri decodes position i as a constant, if it is one.
func (p Pattern) iri(i int) (rdf.TermID, bool) {
	if c := p.Code[i]; c < 0 {
		return rdf.TermID(^c), true
	}
	return 0, false
}

// Step is one entry of a compiled plan: which pattern to solve at this
// depth, its estimated cardinality given everything bound by earlier
// steps, the exact count of its constants-only skeleton, and the index
// shape the runtime will probe once the promised slots are bound
// ("SP", "PO", ..., or "scan" when nothing is bound).
type Step struct {
	Pat  int     `json:"pattern"`
	Est  float64 `json:"est"`
	Base int     `json:"base"`
	Side string  `json:"side"`
}

// Plan is the compiled join order of one pattern list.
type Plan struct {
	Steps    []Step
	order    []int     // depth → pattern index (Steps[d].Pat, flattened)
	est      []float64 // pattern index → estimate at its planned depth
	volatile bool      // cyclic pattern connections; see Volatile
}

// Order returns the static pattern order, indexed by search depth.
// Callers must not mutate the returned slice.
func (pl *Plan) Order() []int { return pl.order }

// Est returns the planned cardinality estimate of pattern i — the
// divergence baseline for the runtime's adaptive escape hatch.
func (pl *Plan) Est(i int) float64 { return pl.est[i] }

// Volatile reports that the patterns' variable-connection graph is
// cyclic (treating entry-bound slots as constants): some pattern
// closes a cycle over variables other patterns already connect, so a
// branch can die on a pattern the static order only reaches later. On
// such shapes literal plan-following forfeits the per-node dead
// detection the fail-first scan gets for free, and the runtime should
// keep full re-scoring. Acyclic shapes (chains, stars, trees) don't
// have this failure mode — the next plan step is the only pattern
// whose count can newly hit zero.
func (pl *Plan) Volatile() bool { return pl.volatile }

// Compile builds the join order for pats over g. entry lists the
// variable slots already bound before any search of this program
// starts (the ancestor variables of a wdPT node); they seed the bound
// set of the first step.
func Compile(pats []Pattern, g *rdf.Graph, entry []int32) *Plan {
	return CompileWithRestrictions(pats, g, entry, nil)
}

// CompileWithRestrictions is Compile with an extra set of restricted
// slots: variable slots an equality filter pins to a single constant.
// The runtime's filter pushdown prunes every other value the moment
// such a slot binds, so the estimator treats restricted slots exactly
// like entry-bound ones — the surviving cardinality through a
// restricted position is the base divided by the position's domain
// size. Restrictions bias only the ordering (and the Explain output);
// the emitted stream is mode-governed and unaffected.
func CompileWithRestrictions(pats []Pattern, g *rdf.Graph, entry []int32, restricted []int32) *Plan {
	n := len(pats)
	pl := &Plan{
		Steps: make([]Step, 0, n),
		order: make([]int, 0, n),
		est:   make([]float64, n),
	}
	bound := make(map[int32]bool, len(entry)+len(restricted)+3*n)
	for _, s := range entry {
		bound[s] = true
	}
	for _, s := range restricted {
		bound[s] = true
	}
	pl.volatile = cyclic(pats, bound)
	// Domain sizes are pure functions of (position, predicate|global);
	// cache them across steps so a k-pattern plan costs O(k²) O(1)-ish
	// probes, not O(k²) catalog scans of an overlay.
	dom := make(map[domKey]float64, 3*n)
	used := make([]bool, n)
	for len(pl.order) < n {
		best, bestBase := -1, 0
		var bestEst float64
		var bestSide string
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			est, base, side := estimate(g, pats[i], bound, dom)
			// Strict improvement keeps the lowest-index pattern on
			// ties — index order is the only tie-break, so the plan is
			// deterministic for a given graph and pattern list.
			if best == -1 || est < bestEst {
				best, bestEst, bestBase, bestSide = i, est, base, side
			}
		}
		used[best] = true
		pl.Steps = append(pl.Steps, Step{Pat: best, Est: bestEst, Base: bestBase, Side: bestSide})
		pl.order = append(pl.order, best)
		pl.est[best] = bestEst
		for _, c := range pats[best].Code {
			if c >= 0 {
				bound[c] = true
			}
		}
	}
	return pl
}

// cyclic reports whether the patterns' variable-connection multigraph
// has a cycle: union-find over variable slots, with each pattern
// pairwise connecting its free (non-entry-bound) variables. A pattern
// whose variables already share a component closes a cycle — including
// the two-pattern case of a repeated variable pair.
func cyclic(pats []Pattern, entry map[int32]bool) bool {
	parent := map[int32]int32{}
	var find func(x int32) int32
	find = func(x int32) int32 {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	for _, p := range pats {
		var vs [3]int32
		nv := 0
		for _, c := range p.Code {
			if c < 0 || entry[c] {
				continue
			}
			dup := false
			for j := 0; j < nv; j++ {
				if vs[j] == c {
					dup = true
					break
				}
			}
			if !dup {
				vs[nv] = c
				nv++
			}
		}
		for j := 1; j < nv; j++ {
			a, b := find(vs[0]), find(vs[j])
			if a == b {
				return true
			}
			parent[a] = b
		}
	}
	return false
}

// domKey caches one domain-size lookup: position plus the constant
// predicate scoping it (predOf = 0 for the global domain; stored
// predicate IDs are offset by one).
type domKey struct {
	pos  int
	pred int64
}

// estimate costs one pattern under the current bound set. The base is
// the exact cardinality of the constants-only skeleton — variable
// positions are rendered as three distinct fresh variables so
// MatchCountID never sees a repeated variable and stays O(1)/O(log)
// even when the source pattern repeats a slot. Each bound variable
// position then divides the base by its domain size: the distinct
// values at that position under the pattern's constant predicate when
// there is one, else globally. That is the classic uniform-
// independence estimator, computed from exact distinct counts.
func estimate(g *rdf.Graph, p Pattern, bound map[int32]bool, dom map[domKey]float64) (est float64, base int, side string) {
	var skel rdf.IDTriple
	var kind [3]byte // 'c' constant, 'b' bound slot, 0 free
	for i := 0; i < 3; i++ {
		if id, ok := p.iri(i); ok {
			skel[i] = id
			kind[i] = 'c'
		} else {
			skel[i] = rdf.VarID(i)
			if bound[p.Code[i]] {
				kind[i] = 'b'
			}
		}
	}
	base = g.MatchCountID(skel)
	est = float64(base)
	pID, pConst := p.iri(1)
	for i := 0; i < 3; i++ {
		if kind[i] != 'b' {
			continue
		}
		key := domKey{pos: i}
		if i != 1 && pConst {
			key.pred = int64(pID) + 1
		}
		d, ok := dom[key]
		if !ok {
			if key.pred != 0 {
				d = float64(g.DistinctUnderPredicate(pID, i))
			} else {
				d = float64(g.DistinctCount(i))
			}
			dom[key] = d
		}
		if d < 1 {
			d = 1
		}
		est /= d
	}
	var b []byte
	for i, k := range kind {
		if k != 0 {
			b = append(b, "SPO"[i])
		}
	}
	if len(b) == 0 {
		return est, base, "scan"
	}
	return est, base, string(b)
}
