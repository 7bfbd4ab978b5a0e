package hom

import (
	"slices"

	"wdsparql/internal/plan"
	"wdsparql/internal/rdf"
)

// This file is the homomorphism solver's one backtracking kernel:
// search from a set of triple patterns into an RDF graph as a
// backtracking join. At every step the remaining pattern with the
// fewest matches under the current partial assignment is expanded (a
// fail-first / most-constrained-first heuristic), and its matches,
// ordered succeed-first, drive the branching.
//
// The search is integer-native: patterns are compiled once against the
// graph's term dictionary and a caller-assigned rdf.SlotLayout
// (variables become dense slots, IRIs become TermIDs), the partial
// assignment is a flat rdf.Row, and candidate selection runs on the
// graph's ID posting lists through the LookupRangeID backend seam: on
// a frozen graph the selectivity counts of the fail-first heuristic
// are O(1) offset probes (O(log) for two bound positions) and exact
// candidate ranges skip the per-triple pattern filter entirely.
// Matches are emitted as bindings into the caller's row — no
// rdf.Mapping is built and no string is decoded. This is what the
// top-down enumeration of ⟦T⟧G streams solutions out of: the partial
// solution accumulated down a wdPT branch *is* the row, bound slots
// act as constants of the search (the paper's "extends µ" side
// condition), and newly matched slots are written in place and undone
// on backtrack. The string-level entry points (Exists, FindAll, Hom,
// ...; solver.go) are thin wrappers over the same kernel.

// cpat is a compiled triple pattern: code[i] ≥ 0 is a variable slot,
// code[i] < 0 encodes the IRI TermID ^code[i] (IRI IDs are dense below
// 2³¹ and fit an int32 after complement).
type cpat struct {
	code [3]int32
}

// scoredCand is a matching candidate triple together with its
// value-ordering score.
type scoredCand struct {
	t     rdf.IDTriple
	score int64
}

// reuseBonus dominates any realistic occurrence count, so candidates
// that reuse values already in the homomorphism image always sort
// before candidates that merely bind well-connected fresh values.
const reuseBonus = int64(1) << 32

// RowProgram is a set of triple patterns compiled once against a graph
// and a slot layout: variables become layout slots, IRI constants
// become TermIDs. The program is immutable after compilation and safe
// for concurrent use through per-goroutine RowSearchers.
type RowProgram struct {
	g      *rdf.Graph
	pats   []cpat
	width  int  // minimum row length: 1 + highest slot referenced
	absent bool // some constant is not in g: no matches

	// Compile-time join order; nil unless built by
	// CompileRowProgramPlanned or BuildPlan (see planner.go).
	plan *plan.Plan

	// Pushed filter conjuncts; see filter.go. Immutable once the first
	// searcher is created.
	filters []progFilter
}

// CompileRowProgram compiles the patterns, interning their variables
// into the layout. Patterns whose constants are unknown to the graph's
// dictionary yield a program with no matches.
func CompileRowProgram(pats []rdf.Triple, g *rdf.Graph, layout *rdf.SlotLayout) *RowProgram {
	p := new(RowProgram)
	p.compile(pats, g, layout)
	return p
}

// compile is CompileRowProgram into p.
func (p *RowProgram) compile(pats []rdf.Triple, g *rdf.Graph, layout *rdf.SlotLayout) {
	*p = RowProgram{g: g, pats: make([]cpat, len(pats))}
	dict := g.Dict()
	for pi, pat := range pats {
		for i, term := range pat.Terms() {
			if term.IsVar() {
				slot := layout.Intern(term.Value)
				if slot+1 > p.width {
					p.width = slot + 1
				}
				p.pats[pi].code[i] = int32(slot)
				continue
			}
			id, ok := dict.LookupIRI(term.Value)
			if !ok {
				p.absent = true
			}
			p.pats[pi].code[i] = ^int32(id)
		}
	}
}

// Width returns the minimum row length the program's Run accepts.
func (p *RowProgram) Width() int { return p.width }

// RowSearcher carries the mutable scratch of one search over a
// RowProgram (pattern done-flags and count memos, the candidate stack,
// and the dense stack of currently-bound values). A searcher is not safe
// for concurrent use, but is reusable across any number of sequential
// Run calls; parallel enumeration gives each worker its own searcher
// over the shared program.
type RowSearcher struct {
	prog   *RowProgram
	g      *rdf.Graph // prog.g and prog.pats, hoisted for the hot loop
	pats   []cpat
	state  []patState   // per pattern: done flag and selection-count memo
	cands  []scoredCand // candidate stack: each expanded node's scored matches
	assign rdf.Row      // the caller's row, during Run
	bound  []rdf.TermID // values bound in assign, maintained across bind/unbind

	// Pattern-selection policy; see planner.go.
	mode   SearchMode
	slack  float64 // strict-mode divergence factor
	stats  *SearchStats
	noMemo bool // benchmark knob: disable the memo

	// Filter-pushdown scratch; nil when the program has no filters
	// (the search then pays nothing). See filter.go.
	fRemaining []int32   // per filter: slots still unbound
	fWatch     [][]int32 // per slot: indices of filters reading it
}

// NewSearcher returns a fresh searcher for the program.
func (p *RowProgram) NewSearcher() *RowSearcher {
	s := new(RowSearcher)
	p.initSearcher(s)
	return s
}

// initSearcher is NewSearcher into s.
func (p *RowProgram) initSearcher(s *RowSearcher) {
	*s = RowSearcher{
		prog:  p,
		g:     p.g,
		pats:  p.pats,
		state: make([]patState, len(p.pats)),
		bound: make([]rdf.TermID, 0, p.width),
		slack: float64(DefaultSlack),
	}
	s.initFilterScratch()
}

// Run enumerates all homomorphisms from the program's patterns into
// its graph that extend the partial row assign: slots already bound in
// assign are constants of the search, and every complete match is
// written into assign before yield is called (and undone afterwards,
// so assign is exactly restored when Run returns). yield must copy the
// row if it needs it beyond the call. Run reports whether the search
// ran to exhaustion; false means yield stopped it early.
//
// An empty pattern set admits exactly the empty extension (one yield).
func (s *RowSearcher) Run(assign rdf.Row, yield func() bool) bool {
	p := s.prog
	if len(assign) < p.width {
		panic("hom: RowSearcher.Run: row narrower than the compiled program")
	}
	if p.absent && len(p.pats) > 0 {
		return true
	}
	if !s.seedFilters(assign) {
		return true // an entry-bound filter fails: empty stream
	}
	s.assign = assign
	s.seedBound(assign)
	ok := s.rec(len(p.pats), yield)
	s.assign = nil
	return ok
}

// seedBound seeds the bound-value stack from the pre-bound slots of
// the row (the paper's µ); rec pushes and pops the values it binds, so
// the stack always mirrors the bound portion of assign without the
// O(width) rescan rowInImage used to pay per candidate position.
func (s *RowSearcher) seedBound(assign rdf.Row) {
	s.bound = s.bound[:0]
	for _, v := range assign {
		if v != rdf.Unbound {
			s.bound = append(s.bound, v)
		}
	}
}

// substituteRow renders pattern i under the current row: bound slots
// and constants become IRI IDs, unbound slots become their per-slot
// variable IDs (repeated variables stay linked through the shared
// slot).
func (s *RowSearcher) substituteRow(i int) rdf.IDTriple {
	var out rdf.IDTriple
	cp := &s.pats[i]
	for pos := 0; pos < 3; pos++ {
		c := cp.code[pos]
		if c < 0 {
			out[pos] = rdf.TermID(^c)
			continue
		}
		if v := s.assign[c]; v != rdf.Unbound {
			out[pos] = v
		} else {
			out[pos] = rdf.VarID(int(c))
		}
	}
	return out
}

// rec expands one remaining pattern (remaining counts the patterns not
// yet matched): pick it (fail-first under the default mode), order its
// candidates succeed-first, bind the newly determined slots in place
// and recurse. It returns false when yield stopped the search.
func (s *RowSearcher) rec(remaining int, yield func() bool) bool {
	if remaining == 0 {
		return yield()
	}
	if s.stats != nil {
		s.stats.Nodes++
	}
	best, bestPat, dead := s.pickPattern()
	if dead {
		return true // dead branch
	}
	top := len(s.cands)
	more := s.expand(best, s.scoredCandidates(best, bestPat), remaining, yield)
	s.cands = s.cands[:top]
	return more
}

// pickPattern chooses the remaining pattern to expand under the
// searcher's mode (see planner.go for the mode contract). The default
// is fail-first: fewest matches under the current row, first such
// pattern on ties — the deterministic branch decision every split of
// the same search state reproduces (SplitTop and RunOn rely on
// exactly that). dead reports that a probed pattern has no matches at
// all, pruning the whole branch. ModeHeuristic stops the scan at the
// first count-1 pattern: sound for the choice (1 is the global minimum
// on a live branch) but blind to later zero-count patterns. The other
// modes scan every remaining pattern — complete dead detection; strict
// mode scans only when its plan order gives way (pickStrict).
func (s *RowSearcher) pickPattern() (best int, bestPat rdf.IDTriple, dead bool) {
	if s.mode == ModeStrict {
		if best, bestPat, dead, ok := s.pickStrict(); ok {
			return best, bestPat, dead
		}
	}
	earlyBreak := s.mode == ModeHeuristic
	best, bestCount := -1, -1
	for i := range s.pats {
		st := &s.state[i]
		if st.done {
			continue
		}
		// countOf, inlined by hand: this scan is the kernel's hottest
		// loop, and the call alone measured ~8% on E7's naive series.
		p := s.substituteRow(i)
		var c int
		if st.memoOK && st.memo == p && !s.noMemo {
			c = st.count
			if s.stats != nil {
				s.stats.MemoHits++
			}
		} else {
			c = s.g.MatchCountID(p)
			st.memoOK, st.memo, st.count = true, p, c
			if s.stats != nil {
				s.stats.CountProbes++
			}
		}
		if c == 0 {
			return -1, rdf.IDTriple{}, true
		}
		if best == -1 || c < bestCount {
			best, bestCount, bestPat = i, c, p
			if c == 1 && earlyBreak {
				break
			}
		}
	}
	return best, bestPat, false
}

// scoredCandidates pushes the candidate triples of pattern best
// (rendered as bestPat under the current row) onto the candidate
// stack, scored and ordered succeed-first, and returns them; the
// caller pops them (truncates the stack back) when done. A deeper
// push may move the stack, but never writes the returned entries.
//
// The succeed-first score is a large bonus for every newly bound value
// that is already in the image of the partial homomorphism (or a
// constant of the pattern) — reusing a value adds no constraints
// beyond those already checked and steers towards small-image,
// folding-style homomorphisms — plus the occurrence count of each
// fresh value (well-connected values are the likeliest to extend; cf.
// degree ordering in subgraph isomorphism). On refutations the order
// is irrelevant since the search exhausts the subtree anyway.
func (s *RowSearcher) scoredCandidates(best int, bestPat rdf.IDTriple) []scoredCand {
	g := s.g
	cp := &s.pats[best]
	stack := s.cands // a local copy keeps the append loop in registers
	top := len(stack)
	if !bestPat[0].IsVar() && !bestPat[1].IsVar() && !bestPat[2].IsVar() {
		// A ground pattern's only candidate is itself, and its
		// selection count already proved membership.
		s.cands = append(stack, scoredCand{t: bestPat})
		return s.cands[top:]
	}
	raw, exact := g.LookupRangeID(bestPat)
	for _, t := range raw {
		if !exact && !rdf.MatchesPatternID(bestPat, t) {
			continue
		}
		var score int64
		for pos := 0; pos < 3; pos++ {
			if c := cp.code[pos]; c >= 0 && s.assign[c] == rdf.Unbound {
				if s.rowInImage(t[pos], bestPat) {
					score += reuseBonus
				}
				score += int64(g.OccurrencesID(t[pos]))
			}
		}
		stack = append(stack, scoredCand{t: t, score: score})
	}
	s.cands = stack
	cands := stack[top:]
	if len(cands) > 1 {
		sortCands(cands)
	}
	return cands
}

// expand matches pattern best against each candidate in turn: it
// binds the candidate's fresh slots, recurses into the remaining
// patterns, and restores the row and the bound stack on the way out.
// A pushed filter whose last slot binds here is evaluated immediately;
// anything but true prunes the subtree below this candidate (the
// recursion is skipped, the binding undone, and the sibling candidates
// continue — a pure subsequence of the unfiltered exploration). expand
// returns false when yield stopped the search.
func (s *RowSearcher) expand(best int, cands []scoredCand, remaining int, yield func() bool) bool {
	cp := &s.pats[best]
	s.state[best].done = true
	more := true
	for _, sc := range cands {
		t := sc.t
		var newSlots [3]int32
		n := 0
		pruned := false
		for pos := 0; pos < 3; pos++ {
			c := cp.code[pos]
			if c >= 0 && s.assign[c] == rdf.Unbound {
				s.assign[c] = t[pos]
				s.bound = append(s.bound, t[pos])
				newSlots[n] = c
				n++
				if s.fWatch != nil {
					for _, fi := range s.fWatch[c] {
						s.fRemaining[fi]--
						if !pruned && s.fRemaining[fi] == 0 && s.prog.filters[fi].expr.Eval(s.assign) != TriTrue {
							pruned = true
						}
					}
				}
			}
		}
		if !pruned {
			more = s.rec(remaining-1, yield)
		} else if s.stats != nil {
			s.stats.FilterPruned++
		}
		for j := 0; j < n; j++ {
			c := newSlots[j]
			s.assign[c] = rdf.Unbound
			if s.fWatch != nil {
				for _, fi := range s.fWatch[c] {
					s.fRemaining[fi]++
				}
			}
		}
		s.bound = s.bound[:len(s.bound)-n]
		if !more {
			break
		}
	}
	s.state[best].done = false
	return more
}

// SplitTop computes the top-level branch point of the search over the
// partial row assign: the candidate triples of the fail-first-chosen
// first pattern, in exactly the order Run would explore them. When ok,
// Run(assign)'s stream is precisely the concatenation of
// RunOn(assign, c) over the returned candidates in order — the seam
// the parallel enumeration uses to partition root work by data (and,
// on a sharded graph, by shard: each candidate's shard is a pure
// function of its subject). Zero candidates with ok=true means the
// stream is empty. ok=false means the search has no top-level branch
// point — the program has no patterns, so Run yields exactly the empty
// extension — and the caller must fall back to Run. The returned slice
// is freshly allocated and caller-owned; assign is read, not written.
func (s *RowSearcher) SplitTop(assign rdf.Row) ([]rdf.IDTriple, bool) {
	p := s.prog
	if len(assign) < p.width {
		panic("hom: RowSearcher.SplitTop: row narrower than the compiled program")
	}
	if len(p.pats) == 0 {
		return nil, false
	}
	if p.absent {
		return nil, true // no matches: an empty stream, zero work items
	}
	if !s.seedFilters(assign) {
		return nil, true // an entry-bound filter fails: empty stream
	}
	s.assign = assign
	s.seedBound(assign)
	best, bestPat, dead := s.pickPattern()
	var out []rdf.IDTriple
	if !dead {
		cands := s.scoredCandidates(best, bestPat)
		out = make([]rdf.IDTriple, len(cands))
		for i, sc := range cands {
			out[i] = sc.t
		}
		s.cands = s.cands[:0]
	}
	s.assign = nil
	return out, true
}

// RunOn is Run with the top-level choice pinned to the candidate t,
// which must come from SplitTop(assign): it re-derives the same
// fail-first pattern choice (deterministic over the immutable graph),
// binds t's fresh slots, and enumerates the remaining patterns'
// extensions. The contract matches Run: every complete match is
// written into assign before yield and undone afterwards, and the
// return value reports exhaustion.
func (s *RowSearcher) RunOn(assign rdf.Row, t rdf.IDTriple, yield func() bool) bool {
	p := s.prog
	if len(assign) < p.width {
		panic("hom: RowSearcher.RunOn: row narrower than the compiled program")
	}
	if len(p.pats) == 0 || p.absent {
		return true
	}
	if !s.seedFilters(assign) {
		return true // an entry-bound filter fails: empty stream
	}
	s.assign = assign
	s.seedBound(assign)
	best, _, dead := s.pickPattern()
	ok := true
	if !dead {
		ok = s.expand(best, []scoredCand{{t: t}}, len(p.pats), yield)
	}
	s.assign = nil
	return ok
}

// rowInImage reports whether the value is already in the image of the
// partial solution row (any bound slot) or a constant of the pattern
// being expanded; see scoredCandidates for the value-ordering rationale.
// The scan runs over the dense bound-value stack — whose length is
// the number of bound slots — not over the full (mostly unbound)
// forest-wide row. Measured on the E9 enumeration workload this is
// the profitable point on the satellite's "set vs scan" trade-off: a
// hash multiset costs more to maintain across bind/unbind than these
// short scans cost to run at typical pattern widths.
func (s *RowSearcher) rowInImage(v rdf.TermID, pat rdf.IDTriple) bool {
	for _, a := range s.bound {
		if a == v {
			return true
		}
	}
	for _, p := range pat {
		if p == v {
			return true
		}
	}
	return false
}

// FindAllID returns all homomorphisms from pats to g as rows under the
// layout (interning any new pattern variables), up to limit (≤ 0 means
// no limit). Slots of the layout outside vars(pats) are Unbound.
func FindAllID(pats []rdf.Triple, g *rdf.Graph, layout *rdf.SlotLayout, limit int) []rdf.Row {
	return FindAllExtendingID(pats, g, layout, nil, limit)
}

// FindAllExtendingID returns all homomorphism rows extending the
// partial row base — the row-native (S, dom(µ)) →µ G of the paper —
// including base's bindings in every result. base must have been built
// against the same layout; it is not modified.
func FindAllExtendingID(pats []rdf.Triple, g *rdf.Graph, layout *rdf.SlotLayout, base rdf.Row, limit int) []rdf.Row {
	prog := CompileRowProgram(pats, g, layout)
	// Compiling may have interned fresh variables past base's width;
	// search on a widened copy so base stays untouched.
	row := layout.NewRow()
	copy(row, base)
	var out []rdf.Row
	prog.NewSearcher().Run(row, func() bool {
		out = append(out, row.Clone())
		return limit <= 0 || len(out) < limit
	})
	return out
}

// sortCands orders candidates by descending score, ties broken by
// ascending triple ID for determinism. Candidate lists on the chosen
// (most constrained) pattern are typically short, so insertion sort
// wins below a cutoff; larger lists fall back to slices.SortFunc.
func sortCands(cands []scoredCand) {
	if len(cands) <= 32 {
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && candLess(cands[j], cands[j-1]); j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		return
	}
	slices.SortFunc(cands, func(a, b scoredCand) int {
		switch {
		case candLess(a, b):
			return -1
		case candLess(b, a):
			return 1
		}
		return 0
	})
}

func candLess(a, b scoredCand) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.t.Less(b.t)
}
