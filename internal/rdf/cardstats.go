package rdf

// Selectivity catalog: distinct-key statistics the compile-time query
// planner (internal/plan) reads alongside MatchCountID. The CSR offset
// arrays of the sealed backends already answer "how many triples carry
// key k at position X" in O(1); this file adds the complementary
// domain-size questions — how many distinct subjects/predicates/objects
// exist, globally and under a fixed predicate — that turn posting
// lengths into per-bound-variable selectivity estimates.
//
// Cost discipline mirrors the backends' own contracts:
//
//   - Frozen / sharded: global counts are computed once, lazily, by a
//     single pass over the offset (or global count) arrays, guarded by
//     sync.Once so the first plan compilation is safe under concurrent
//     readers and mmap-loaded snapshots stay O(1) until a plan asks.
//     Per-predicate counts walk one key column group, whose secondary
//     sort makes distinct values = key transitions.
//   - Sharded: subjects partition across shards (shardOfID hashes the
//     subject), so per-shard distinct-subject sums are exact. Distinct
//     objects under a predicate are per-shard sums and therefore an
//     upper bound — acceptable for an estimator, documented here so
//     nobody mistakes it for an invariant.
//   - Overlay: the delta adds only keys absent from the sealed base
//     (checked by O(1)/O(log) base probes per overlay key), keeping the
//     counts exact on frozen bases. Overlays are small by construction.

import "sync"

// cardStats is the lazily-filled global distinct-count cache embedded
// in the immutable sealed views.
type cardStats struct {
	once                sync.Once
	distS, distP, distO int
}

// DistinctCount reports the number of distinct IRIs occurring at
// position pos (0 = subject, 1 = predicate, 2 = object) across the
// graph, overlay included.
func (g *Graph) DistinctCount(pos int) int {
	var base int
	if g.shd != nil {
		base = g.shd.distinct(pos)
	} else {
		base = g.frz.distinct(pos)
	}
	if g.ovl != nil {
		base += g.overlayNewKeys(pos)
	}
	return base
}

// DistinctUnderPredicate reports the number of distinct terms at
// position pos (0 = subject, 2 = object) among the triples whose
// predicate is p. Exact on a frozen base and its overlay; on a sharded
// base the object count is a per-shard sum and may double count
// objects recurring across shards (subject counts stay exact —
// subjects partition by shard). Callers treat it as an estimate.
func (g *Graph) DistinctUnderPredicate(p TermID, pos int) int {
	var base int
	if g.shd != nil {
		for i := range g.shd.shards {
			base += g.shd.shards[i].view.distinctUnder(p, pos)
		}
	} else {
		base = g.frz.distinctUnder(p, pos)
	}
	if g.ovl != nil {
		base += g.overlayNewUnder(p, pos)
	}
	return base
}

// distinct returns the global distinct-key count of one position,
// computing all three on first use.
func (f *frozenView) distinct(pos int) int {
	f.stats.once.Do(func() {
		f.stats.distS = nonzeroGroups(f.offS)
		f.stats.distP = nonzeroGroups(f.offP)
		f.stats.distO = nonzeroGroups(f.offO)
	})
	switch pos {
	case 0:
		return f.stats.distS
	case 1:
		return f.stats.distP
	default:
		return f.stats.distO
	}
}

// distinctUnder counts key transitions in the secondarily-sorted key
// column of predicate p's group: keyPS (subjects) or keyPO (objects)
// order the group by exactly the key being counted.
func (f *frozenView) distinctUnder(p TermID, pos int) int {
	k := int(p)
	if p.IsVar() || k >= f.nIRIs {
		return 0
	}
	keys := f.keyPS
	if pos == 2 {
		keys = f.keyPO
	}
	grp := keys[f.offP[k]:f.offP[k+1]]
	n := 0
	for i, v := range grp {
		if i == 0 || grp[i-1] != v {
			n++
		}
	}
	return n
}

func (sg *ShardedGraph) distinct(pos int) int {
	sg.stats.once.Do(func() {
		for i := range sg.shards {
			// Subjects partition across shards, so the sum is exact.
			sg.stats.distS += sg.shards[i].view.distinct(0)
		}
		sg.stats.distP = nonzeroGroups(sg.cntP)
		sg.stats.distO = nonzeroGroups(sg.cntO)
	})
	switch pos {
	case 0:
		return sg.stats.distS
	case 1:
		return sg.stats.distP
	default:
		return sg.stats.distO
	}
}

// groupLen is the sealed-base posting-list length of one key, the
// O(1) probe the overlay delta counts lean on.
func (sg *ShardedGraph) groupLen(pos int, k TermID) int {
	if k.IsVar() || int(k) >= sg.nIRIs {
		return 0
	}
	switch pos {
	case 0:
		v := sg.shards[shardOfID(k, sg.n)].view
		return int(v.groupLen(v.offS, k))
	case 1:
		return int(sg.cntP[k+1] - sg.cntP[k])
	default:
		return int(sg.cntO[k+1] - sg.cntO[k])
	}
}

// nonzeroGroups counts keys with a non-empty posting list in a CSR
// offset (or global count-offset) array.
func nonzeroGroups(off []uint32) int {
	n := 0
	for i := 1; i < len(off); i++ {
		if off[i] > off[i-1] {
			n++
		}
	}
	return n
}

// overlayNewKeys counts overlay posting-list keys at position pos that
// the sealed base has never seen, i.e. the overlay's contribution to
// the global distinct count. Map iteration order is irrelevant — only
// the count is returned.
func (g *Graph) overlayNewKeys(pos int) int {
	var m map[TermID][]IDTriple
	switch pos {
	case 0:
		m = g.ovl.byS
	case 1:
		m = g.ovl.byP
	default:
		m = g.ovl.byO
	}
	n := 0
	for k := range m {
		if g.baseGroupLen(pos, k) == 0 {
			n++
		}
	}
	return n
}

func (g *Graph) baseGroupLen(pos int, k TermID) int {
	if g.shd != nil {
		return g.shd.groupLen(pos, k)
	}
	switch pos {
	case 0:
		return int(g.frz.groupLen(g.frz.offS, k))
	case 1:
		return int(g.frz.groupLen(g.frz.offP, k))
	default:
		return int(g.frz.groupLen(g.frz.offO, k))
	}
}

// overlayNewUnder counts distinct values at position pos among overlay
// triples under predicate p that do not co-occur with p in the base.
func (g *Graph) overlayNewUnder(p TermID, pos int) int {
	seen := make(map[TermID]struct{})
	n := 0
	for _, t := range g.ovl.byP[p] {
		v := t[pos]
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		if !g.basePairHas(p, v, pos) {
			n++
		}
	}
	return n
}

// basePairHas reports whether the sealed base holds any triple with
// predicate p and value v at position pos (0 or 2).
func (g *Graph) basePairHas(p, v TermID, pos int) bool {
	if g.shd != nil {
		if pos == 0 {
			sh := g.shd.shards[shardOfID(v, g.shd.n)].view
			lo, hi := sh.range2Bounds(sh.offS, sh.keySP, v, p)
			return hi > lo
		}
		for i := range g.shd.shards {
			sh := g.shd.shards[i].view
			if lo, hi := sh.range2Bounds(sh.offP, sh.keyPO, p, v); hi > lo {
				return true
			}
		}
		return false
	}
	f := g.frz
	if pos == 0 {
		lo, hi := f.range2Bounds(f.offS, f.keySP, v, p)
		return hi > lo
	}
	lo, hi := f.range2Bounds(f.offP, f.keyPO, p, v)
	return hi > lo
}
