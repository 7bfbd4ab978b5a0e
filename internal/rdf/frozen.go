package rdf

// This file implements the frozen (sealed) base of Graph: the standard
// dictionary-encoded + CSR design of production RDF stores. Freeze
// lays the graph's triples out into flat triple arenas with offset
// arrays indexed by dense TermID, so every read probe is an array
// access (one key bound), a galloping/binary range search (two keys
// bound) or an open-addressing probe (ground triple), with no map
// hashing and no per-key slice headers. A frozen view is immutable —
// exactly the concurrent-reader contract the evaluation stack relies
// on — and writes go to the graph's overlay (overlay.go) instead.
//
// Two kinds of view coexist:
//
//   - The primary, order-bearing arenas (arenaS/arenaP/arenaO) keep
//     each posting list in insertion order, so the enumeration
//     pipeline's determinism invariants (ROADMAP "Enumeration
//     pipeline") hold on a frozen graph.
//   - The secondarily-sorted arenas (arenaSP/arenaPO/arenaSO) reuse
//     the same grouping but stably order each group by a second
//     position, so two-key posting lists are contiguous ranges found
//     by galloping search rather than separate maps. Stability makes
//     even these ranges insertion-ordered, so no consumer can observe
//     which arena answered.
//
// The sharded backend (sharded.go) shards the primary views and the
// membership table; the sorted views are derived per shard.

// frozenView is the compact immutable index structure of a frozen
// graph. All slices are built once by freezeGraph and never mutated.
type frozenView struct {
	nIRIs int // offsets cover TermIDs [0, nIRIs)

	// CSR offsets, length nIRIs+1. offX[id]..offX[id+1] delimits the
	// group of triples holding id at position X, in both the primary
	// and the secondarily-sorted arena of that grouping.
	offS, offP, offO []uint32

	// Primary order-bearing arenas: grouped by one position, insertion
	// order within each group.
	arenaS, arenaP, arenaO []IDTriple

	// Secondarily-sorted arenas: same grouping and offsets as the
	// primary arena of the first key, each group stably ordered by the
	// second key, so (k1,k2) posting lists are contiguous ranges — in
	// insertion order, by stability. Both groupings exist for every
	// key pair (hexastore-style), and the probe searches whichever
	// group is smaller: a two-key range inside a huge low-cardinality
	// group (say P with a handful of predicates) is found through the
	// other, far smaller group instead. Stability makes the two
	// realisations of the same range identical, content and order.
	arenaSP []IDTriple // grouped by S (offS), ordered by P within group
	arenaPS []IDTriple // grouped by P (offP), ordered by S within group
	arenaPO []IDTriple // grouped by P (offP), ordered by O within group
	arenaOP []IDTriple // grouped by O (offO), ordered by P within group
	arenaSO []IDTriple // grouped by S (offS), ordered by O within group
	arenaOS []IDTriple // grouped by O (offO), ordered by S within group

	// Key columns: the secondary key of each arena slot, extracted
	// into a dense []TermID so the galloping search touches 4-byte
	// keys instead of 12-byte triples — three times fewer cache lines
	// on large groups (the classic column-store trick).
	keySP, keyPS, keyPO, keyOP, keySO, keyOS []TermID

	// Membership: open-addressing (linear probing) table of indices
	// into all, power-of-two sized, load factor ≤ 1/2: a fraction of
	// the footprint of a map[IDTriple]struct{}.
	memb []uint32
	all  []IDTriple // the graph's insertion-order slice (shared)

	// Lazily-computed distinct-key counts backing the planner's
	// selectivity catalog; see cardstats.go.
	stats cardStats
}

// frozenAbsent marks an empty membership slot. Triple indexes are
// bounded by len(all) < 2³², so the all-ones pattern is free.
const frozenAbsent = ^uint32(0)

// freezeGraph builds the frozen view of the graph's current triple
// set; see freezeTriples.
func freezeGraph(g *Graph) *frozenView {
	return freezeTriples(g.all, g.dict.NumIRIs())
}

// freezeTriples builds a frozen view over an insertion-ordered triple
// slice in O(|all| + ni): three counting passes for the offsets, six
// stable scatter passes for the arenas, one insertion pass for the
// membership table. No comparison sort is involved — the secondary
// arenas come out of a two-pass LSD bucket sort whose stability is
// what preserves insertion order inside every (k1,k2) range. The
// sharded backend calls this once per shard with the shard's subset of
// the graph's triples (still in insertion order).
func freezeTriples(all []IDTriple, ni int) *frozenView {
	f := &frozenView{nIRIs: ni, all: all}
	f.offS = bucketOffsets(all, 0, ni)
	f.offP = bucketOffsets(all, 1, ni)
	f.offO = bucketOffsets(all, 2, ni)
	cur := make([]uint32, ni+1) // scatter cursor, reused across passes
	f.arenaS = bucketScatter(all, 0, f.offS, cur)
	f.arenaP = bucketScatter(all, 1, f.offP, cur)
	f.arenaO = bucketScatter(all, 2, f.offO, cur)
	// Secondary views: the inner pass has already ordered the triples
	// by the secondary key (insertion order within equal keys); the
	// outer stable pass groups by the primary key without disturbing
	// that order.
	f.arenaSP = bucketScatter(f.arenaP, 0, f.offS, cur)
	f.arenaPS = bucketScatter(f.arenaS, 1, f.offP, cur)
	f.arenaPO = bucketScatter(f.arenaO, 1, f.offP, cur)
	f.arenaOP = bucketScatter(f.arenaP, 2, f.offO, cur)
	f.arenaSO = bucketScatter(f.arenaO, 0, f.offS, cur)
	f.arenaOS = bucketScatter(f.arenaS, 2, f.offO, cur)
	f.keySP = keyColumn(f.arenaSP, 1)
	f.keyPS = keyColumn(f.arenaPS, 0)
	f.keyPO = keyColumn(f.arenaPO, 2)
	f.keyOP = keyColumn(f.arenaOP, 1)
	f.keySO = keyColumn(f.arenaSO, 2)
	f.keyOS = keyColumn(f.arenaOS, 0)
	f.memb = buildMembership(all)
	return f
}

// keyColumn extracts one position of the arena into a dense key
// slice.
func keyColumn(arena []IDTriple, pos int) []TermID {
	out := make([]TermID, len(arena))
	for i, t := range arena {
		out[i] = t[pos]
	}
	return out
}

// bucketOffsets counts the triples per TermID at the position and
// prefix-sums the counts into CSR offsets.
func bucketOffsets(ts []IDTriple, pos, ni int) []uint32 {
	off := make([]uint32, ni+1)
	for _, t := range ts {
		off[t[pos]+1]++
	}
	for i := 1; i <= ni; i++ {
		off[i] += off[i-1]
	}
	return off
}

// bucketScatter stably distributes src into groups delimited by off
// (the offsets of the given position), preserving src's relative
// order within each group.
func bucketScatter(src []IDTriple, pos int, off, cur []uint32) []IDTriple {
	copy(cur, off)
	out := make([]IDTriple, len(src))
	for _, t := range src {
		out[cur[t[pos]]] = t
		cur[t[pos]]++
	}
	return out
}

// buildMembership builds the linear-probing membership table over
// indices into all.
func buildMembership(all []IDTriple) []uint32 {
	size := 2
	for size < 2*len(all) {
		size <<= 1
	}
	memb := make([]uint32, size)
	for i := range memb {
		memb[i] = frozenAbsent
	}
	mask := uint32(size - 1)
	for i, t := range all {
		h := hashIDTriple(t) & mask
		for memb[h] != frozenAbsent {
			h = (h + 1) & mask
		}
		memb[h] = uint32(i)
	}
	return memb
}

// hashIDTriple mixes the three term IDs through a splitmix64-style
// finalizer; the table is power-of-two sized, so all output bits must
// carry entropy.
func hashIDTriple(t IDTriple) uint32 {
	h := uint64(t[0])*0x9E3779B185EBCA87 + uint64(t[1])
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h += uint64(t[2])
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return uint32(h ^ (h >> 31))
}

// contains probes the membership table; on a hit it returns the
// one-element slice of the graph's insertion-order storage holding the
// triple (full-capacity-clamped, so callers cannot append into the
// neighbouring triples).
func (f *frozenView) contains(t IDTriple) ([]IDTriple, bool) {
	if len(f.all) == 0 {
		return nil, false
	}
	mask := uint32(len(f.memb) - 1)
	h := hashIDTriple(t) & mask
	for {
		idx := f.memb[h]
		if idx == frozenAbsent {
			return nil, false
		}
		if f.all[idx] == t {
			return f.all[idx : idx+1 : idx+1], true
		}
		h = (h + 1) & mask
	}
}

// groupLen returns the size of the key's group in O(1); IDs past the
// frozen dictionary bound have empty groups.
func (f *frozenView) groupLen(off []uint32, key TermID) uint32 {
	k := int(key)
	if k >= f.nIRIs {
		return 0
	}
	return off[k+1] - off[k]
}

// range1 returns the single-key posting list: one O(1) offset probe.
// IDs past the frozen dictionary bound (interned after the freeze)
// occur in no triple.
func (f *frozenView) range1(off []uint32, arena []IDTriple, key TermID) []IDTriple {
	k := int(key)
	if k >= f.nIRIs {
		return nil
	}
	return arena[off[k]:off[k+1]]
}

// range2 returns the (k1,k2) posting list: the contiguous run with
// the secondary key equal to k2 inside the k1 group of the
// secondarily-sorted arena, located by galloping search over the
// dense key column.
func (f *frozenView) range2(off []uint32, arena []IDTriple, keys []TermID, k1, k2 TermID) []IDTriple {
	b, e := f.range2Bounds(off, keys, k1, k2)
	return arena[b:e]
}

// range2Bounds locates the (k1,k2) run and returns its absolute
// [begin, end) index range into the arena (empty range on a miss). The
// sharded backend uses the indexes to slice the arena and its aligned
// sequence-number column in lockstep.
func (f *frozenView) range2Bounds(off []uint32, keys []TermID, k1, k2 TermID) (uint32, uint32) {
	k := int(k1)
	if k >= f.nIRIs {
		return 0, 0
	}
	b, e := off[k], off[k+1]
	grp := keys[b:e]
	var lo, hi int
	if len(grp) <= smallGroup {
		// Short groups: a sequential scan over the dense key column
		// stays in one or two cache lines and out-predicts the
		// galloping branches.
		for lo < len(grp) && grp[lo] < k2 {
			lo++
		}
		hi = lo
		for hi < len(grp) && grp[hi] == k2 {
			hi++
		}
	} else {
		lo = gallopFloor(grp, k2)
		if lo == len(grp) || grp[lo] != k2 {
			return b, b
		}
		hi = lo + gallopFloor(grp[lo:], k2+1)
	}
	return b + uint32(lo), b + uint32(hi)
}

// smallGroup is the group size below which range2 scans linearly
// instead of galloping.
const smallGroup = 32

// gallopFloor returns the smallest index i with grp[i] ≥ key:
// exponential (galloping) probing brackets the answer in O(log r)
// steps for an answer at distance r, then binary search narrows the
// bracket — the classic sorted-list intersection primitive, cheaper
// than a full binary search when ranges sit near the group start.
func gallopFloor(grp []TermID, key TermID) int {
	n := len(grp)
	if n == 0 || grp[0] >= key {
		return 0
	}
	// Invariant: grp[lo] < key; answer in (lo, hi].
	lo, hi := 0, 1
	for hi < n && grp[hi] < key {
		lo, hi = hi, hi<<1
	}
	if hi > n {
		hi = n
	}
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if grp[mid] < key {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// candidates mirrors Graph.CandidatesID on the frozen indexes. Every
// returned slice is (a range of) immutable frozen storage, in
// insertion order.
func (f *frozenView) candidates(p IDTriple) []IDTriple {
	sB, pB, oB := !p[0].IsVar(), !p[1].IsVar(), !p[2].IsVar()
	switch {
	case sB && pB && oB:
		hit, _ := f.contains(p)
		return hit
	case sB && pB:
		if f.groupLen(f.offS, p[0]) <= f.groupLen(f.offP, p[1]) {
			return f.range2(f.offS, f.arenaSP, f.keySP, p[0], p[1])
		}
		return f.range2(f.offP, f.arenaPS, f.keyPS, p[1], p[0])
	case pB && oB:
		if f.groupLen(f.offP, p[1]) <= f.groupLen(f.offO, p[2]) {
			return f.range2(f.offP, f.arenaPO, f.keyPO, p[1], p[2])
		}
		return f.range2(f.offO, f.arenaOP, f.keyOP, p[2], p[1])
	case sB && oB:
		if f.groupLen(f.offS, p[0]) <= f.groupLen(f.offO, p[2]) {
			return f.range2(f.offS, f.arenaSO, f.keySO, p[0], p[2])
		}
		return f.range2(f.offO, f.arenaOS, f.keyOS, p[2], p[0])
	case sB:
		return f.range1(f.offS, f.arenaS, p[0])
	case pB:
		return f.range1(f.offP, f.arenaP, p[1])
	case oB:
		return f.range1(f.offO, f.arenaO, p[2])
	default:
		return f.all
	}
}

// Freeze folds the overlay and the base into one new single-arena
// frozen base. It is idempotent — a frozen graph without an overlay is
// returned as is — and re-seals a sharded graph single-arena. The
// frozen view is immutable, so a frozen graph without an overlay is
// safe for any number of concurrent readers. Freeze itself is a write
// operation: it must not run concurrently with reads or other writes.
//
// Writes after a Freeze go to a new overlay; call Freeze (or Compact)
// again after the write burst to fold them in. Freeze returns its
// receiver so construction can chain: NewGraph → Add… → Freeze.
func (g *Graph) Freeze() *Graph {
	if g.ovl != nil {
		g.foldOverlay()
	} else if g.shd == nil {
		return g
	}
	g.frz, g.shd = freezeGraph(g), nil
	return g
}
