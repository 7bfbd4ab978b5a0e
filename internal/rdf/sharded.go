package rdf

// This file implements the sharded storage backend of Graph: the
// horizontal-partitioning step between the single-arena frozen CSR
// backend (frozen.go) and a future multi-node deployment. Triples are
// partitioned across N shards by a hash of their subject TermID; each
// shard is a complete frozen CSR view (primary order-bearing arenas,
// secondarily-sorted arenas, membership table) over its own subset of
// the triples, sharing the parent graph's Dict — exactly the ROADMAP's
// "shard the primary views + membership and derive the sorted views
// per shard".
//
// The freeze-lifecycle invariant — every read returns the same triples
// in the same (insertion) order on every backend — survives sharding
// through per-triple global sequence numbers: a triple's sequence
// number is its index in the graph's insertion-order slice, the
// partition is stable (each shard's subset keeps global order), and
// every cross-shard read is a k-way merge of per-shard streams ordered
// by sequence number. Probe shapes dispatch as follows:
//
//   - Subject bound (S, SP, SO, ground): the subject hash names the one
//     shard that can hold matches; the answer is that shard's frozen
//     probe, zero-copy and already in global order (a subsequence of
//     the insertion order is still in insertion order).
//   - Nothing bound: the parent's shared insertion-order slice.
//   - Predicate and/or object bound (P, O, PO): every shard may hold
//     matches. Counts are sums of per-shard range lengths (no merge,
//     no allocation); candidate lists are materialised by the k-way
//     sequence-number merge below. When only one shard's range is
//     non-empty the merge degenerates to the zero-copy single-shard
//     answer.
//
// A sharded view is immutable — the same concurrent-reader contract
// as the frozen backend — and writes go to the graph's overlay.

// ShardedGraph is the compact immutable sharded index structure of a
// graph sealed by Graph.Shard. All slices are built once by shardGraph
// and never mutated. It is exposed (Graph.Shards) so the enumeration
// layer and the benchmarks can observe the partition; all ordinary
// reads go through the Graph methods, which dispatch here.
type ShardedGraph struct {
	n     int // shard count, ≥ 1
	nIRIs int // dictionary bound at seal time

	all    []IDTriple // the graph's insertion-order slice (shared)
	shards []graphShard

	// Global single-key count offsets for the cross-shard positions:
	// cntP[k+1]-cntP[k] is the graph-wide posting-list length of
	// predicate k (likewise cntO for objects), so single-key
	// MatchCountID stays O(1) instead of summing over shards. These are
	// aggregate counts, not order-bearing views — the per-shard arenas
	// remain the only source of triples.
	cntP, cntO []uint32

	// Lazily-computed distinct-key counts backing the planner's
	// selectivity catalog; see cardstats.go.
	stats cardStats
}

// graphShard is one shard: a frozen CSR view over the shard's triples
// plus the global sequence-number columns the cross-shard merges order
// by. Only the arenas a cross-shard probe can reach need sequence
// columns: the primary P and O groupings and the two sorted arenas
// that answer (P,O) range probes. Subject-grouped arenas are reached
// through a single shard only, where local order is already global
// order.
type graphShard struct {
	view *frozenView

	seqAll []uint32 // aligned with view.all (the shard's triples)
	seqP   []uint32 // aligned with view.arenaP
	seqO   []uint32 // aligned with view.arenaO
	seqPO  []uint32 // aligned with view.arenaPO
	seqOP  []uint32 // aligned with view.arenaOP
}

// shardOfID maps a subject TermID to its shard through a
// splitmix64-style finalizer. TermIDs are dense small integers, so a
// plain modulus would stripe adjacent subjects across shards in lock
// step with interning order; the mixer decorrelates the partition from
// the dictionary layout, which is what keeps shard sizes balanced on
// adversarial ID ranges (and is the function a multi-node deployment
// would have to agree on — see DESIGN.md §4).
func shardOfID(s TermID, n int) int {
	h := uint64(s) + 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	return int((h ^ (h >> 31)) % uint64(n))
}

// shardGraph partitions the graph's insertion-order slice across n
// shards (a stable partition: each shard's subset preserves global
// order) and builds one frozen CSR view per shard plus the
// sequence-number columns. Cost is O(|G| + n·|dict|): the counting and
// scatter passes of the freeze run once per shard over that shard's
// triples, and the per-shard offset arrays are indexed by the full
// dense TermID space (a multi-node deployment would give each shard
// its own dictionary; within one process the dense offsets buy O(1)
// probes at a well-understood memory cost).
func shardGraph(g *Graph, n int) *ShardedGraph {
	ni := g.dict.NumIRIs()
	sg := &ShardedGraph{n: n, nIRIs: ni, all: g.all, shards: make([]graphShard, n)}
	sg.cntP = bucketOffsets(g.all, 1, ni)
	sg.cntO = bucketOffsets(g.all, 2, ni)
	counts := make([]int, n)
	for _, t := range g.all {
		counts[shardOfID(t[0], n)]++
	}
	parts := make([][]IDTriple, n)
	seqs := make([][]uint32, n)
	for s := 0; s < n; s++ {
		parts[s] = make([]IDTriple, 0, counts[s])
		seqs[s] = make([]uint32, 0, counts[s])
	}
	for i, t := range g.all {
		s := shardOfID(t[0], n)
		parts[s] = append(parts[s], t)
		seqs[s] = append(seqs[s], uint32(i))
	}
	cur := make([]uint32, ni+1) // scatter cursor, reused across shards
	for s := range sg.shards {
		v := freezeTriples(parts[s], ni)
		sh := &sg.shards[s]
		sh.view = v
		sh.seqAll = seqs[s]
		// The sequence columns repeat the freeze's stable scatter
		// passes on the sequence numbers, so seqX[i] is the global
		// sequence of the triple at arenaX[i].
		sh.seqP = seqScatter(parts[s], seqs[s], 1, v.offP, cur)
		sh.seqO = seqScatter(parts[s], seqs[s], 2, v.offO, cur)
		sh.seqPO = seqScatter(v.arenaO, sh.seqO, 1, v.offP, cur)
		sh.seqOP = seqScatter(v.arenaP, sh.seqP, 2, v.offO, cur)
	}
	return sg
}

// seqScatter mirrors bucketScatter on a sequence column: it distributes
// srcSeq into the groups that bucketScatter(src, pos, off, cur) sends
// the corresponding triples to, preserving relative order, so the
// output stays aligned with the scattered arena.
func seqScatter(src []IDTriple, srcSeq []uint32, pos int, off, cur []uint32) []uint32 {
	copy(cur, off)
	out := make([]uint32, len(src))
	for i, t := range src {
		out[cur[t[pos]]] = srcSeq[i]
		cur[t[pos]]++
	}
	return out
}

// NumShards returns the shard count.
func (sg *ShardedGraph) NumShards() int { return sg.n }

// ShardLen returns the number of triples in shard s.
func (sg *ShardedGraph) ShardLen(s int) int { return len(sg.shards[s].view.all) }

// ShardOf returns the shard holding (all triples with) the subject id.
func (sg *ShardedGraph) ShardOf(s TermID) int { return shardOfID(s, sg.n) }

// AllID materialises the k-way sequence-number merge of every shard's
// primary insertion-order stream. The result must equal the parent
// graph's TriplesID slice element for element — the differential tests
// pin exactly that — making AllID the direct witness that the merge
// reconstructs global insertion order from the per-shard streams.
func (sg *ShardedGraph) AllID() []IDTriple {
	var buf [mergeFanIn]mergeSrc
	srcs := buf[:0]
	if sg.n > mergeFanIn {
		srcs = make([]mergeSrc, 0, sg.n)
	}
	for s := range sg.shards {
		sh := &sg.shards[s]
		if len(sh.view.all) > 0 {
			srcs = append(srcs, mergeSrc{ts: sh.view.all, seq: sh.seqAll})
		}
	}
	return mergeBySeq(srcs, len(sg.all))
}

// mergeSrc is one input stream of a sequence-number merge: triples and
// their aligned global sequence numbers, both ordered by sequence.
type mergeSrc struct {
	ts  []IDTriple
	seq []uint32
}

// mergeFanIn is the shard count up to which the per-probe merge-source
// list fits a caller-stack buffer (mergeBySeq never retains its input,
// so the buffer does not escape): probes allocate only for the merged
// output itself, and not even that when a single shard is populated.
const mergeFanIn = 16

// mergeBySeq k-way merges the sources into one slice ordered by global
// sequence number — i.e. global insertion order. Sequence numbers are
// unique across sources (they index one shared insertion-order slice),
// so the merge is unambiguous. Shard counts are small, so the head
// selection is a linear scan over the sources rather than a heap, and
// each selection copies the whole run of the winning source that
// precedes every other head (runs are located by a linear scan: with
// hash partitioning they are short, and the scan stays in the sequence
// column's cache lines).
func mergeBySeq(srcs []mergeSrc, total int) []IDTriple {
	switch len(srcs) {
	case 0:
		return nil
	case 1:
		// Single populated source: its stream IS the global stream.
		return srcs[0].ts
	}
	out := make([]IDTriple, 0, total)
	for {
		best := -1
		lim := ^uint32(0) // smallest head among the other sources
		for i := range srcs {
			if len(srcs[i].seq) == 0 {
				continue
			}
			h := srcs[i].seq[0]
			switch {
			case best < 0:
				best = i
			case h < srcs[best].seq[0]:
				lim = srcs[best].seq[0]
				best = i
			case h < lim:
				lim = h
			}
		}
		if best < 0 {
			return out
		}
		run := 1
		bs := srcs[best].seq
		for run < len(bs) && bs[run] < lim {
			run++
		}
		out = append(out, srcs[best].ts[:run]...)
		srcs[best].ts = srcs[best].ts[run:]
		srcs[best].seq = srcs[best].seq[run:]
	}
}

// contains probes the membership table of the subject's shard.
func (sg *ShardedGraph) contains(t IDTriple) bool {
	_, ok := sg.shards[shardOfID(t[0], sg.n)].view.contains(t)
	return ok
}

// candidates mirrors Graph.CandidatesID on the sharded indexes: every
// returned list holds the same triples in the same global insertion
// order as the frozen backend. Subject-bound shapes answer
// from one shard zero-copy; cross-shard shapes (P, O, PO) materialise
// the sequence-number merge — the returned slice is then freshly
// allocated and never aliases shard storage.
func (sg *ShardedGraph) candidates(p IDTriple) []IDTriple {
	if sg.n == 1 {
		// Degenerate partition: the one shard IS the frozen view.
		return sg.shards[0].view.candidates(p)
	}
	sB, pB, oB := !p[0].IsVar(), !p[1].IsVar(), !p[2].IsVar()
	if sB {
		// Any subject-bound shape lives entirely in one shard, whose
		// frozen view answers it in global order.
		return sg.shards[shardOfID(p[0], sg.n)].view.candidates(p)
	}
	switch {
	case pB && oB:
		return sg.mergeRange2(p[1], p[2])
	case pB:
		return sg.mergeRange1(p[1], false)
	case oB:
		return sg.mergeRange1(p[2], true)
	default:
		return sg.all
	}
}

// mergeRange1 merges the per-shard single-key posting lists for a
// bound predicate (byObject=false) or bound object (byObject=true).
func (sg *ShardedGraph) mergeRange1(key TermID, byObject bool) []IDTriple {
	var buf [mergeFanIn]mergeSrc
	srcs := buf[:0]
	if sg.n > mergeFanIn {
		srcs = make([]mergeSrc, 0, sg.n)
	}
	total := 0
	for s := range sg.shards {
		sh := &sg.shards[s]
		v := sh.view
		var off []uint32
		var arena []IDTriple
		var seq []uint32
		if byObject {
			off, arena, seq = v.offO, v.arenaO, sh.seqO
		} else {
			off, arena, seq = v.offP, v.arenaP, sh.seqP
		}
		k := int(key)
		if k >= v.nIRIs {
			return nil // post-seal constant: in no shard
		}
		b, e := off[k], off[k+1]
		if b == e {
			continue
		}
		srcs = append(srcs, mergeSrc{ts: arena[b:e], seq: seq[b:e]})
		total += int(e - b)
	}
	return mergeBySeq(srcs, total)
}

// mergeRange2 merges the per-shard (P,O) range probes. Each shard
// independently picks the smaller of its P and O groups to search —
// the same cost rule as the frozen backend — and contributes the
// located range together with its aligned sequence column.
func (sg *ShardedGraph) mergeRange2(p, o TermID) []IDTriple {
	var buf [mergeFanIn]mergeSrc
	srcs := buf[:0]
	if sg.n > mergeFanIn {
		srcs = make([]mergeSrc, 0, sg.n)
	}
	total := 0
	for s := range sg.shards {
		sh := &sg.shards[s]
		v := sh.view
		var b, e uint32
		var arena []IDTriple
		var seq []uint32
		if v.groupLen(v.offP, p) <= v.groupLen(v.offO, o) {
			b, e = v.range2Bounds(v.offP, v.keyPO, p, o)
			arena, seq = v.arenaPO, sh.seqPO
		} else {
			b, e = v.range2Bounds(v.offO, v.keyOP, o, p)
			arena, seq = v.arenaOP, sh.seqOP
		}
		if b == e {
			continue
		}
		srcs = append(srcs, mergeSrc{ts: arena[b:e], seq: seq[b:e]})
		total += int(e - b)
	}
	return mergeBySeq(srcs, total)
}

// count returns the number of triples matching the encoded pattern
// without materialising any merge: subject-bound shapes probe one
// shard, cross-shard shapes sum per-shard range lengths. The pattern
// must not have repeated variables (the caller filters those through
// the candidate path).
func (sg *ShardedGraph) count(p IDTriple) int {
	if sg.n == 1 {
		return len(sg.shards[0].view.candidates(p))
	}
	sB, pB, oB := !p[0].IsVar(), !p[1].IsVar(), !p[2].IsVar()
	if sB {
		if pB && oB {
			if sg.contains(p) {
				return 1
			}
			return 0
		}
		return len(sg.shards[shardOfID(p[0], sg.n)].view.candidates(p))
	}
	switch {
	case pB && oB:
		n := 0
		for s := range sg.shards {
			v := sg.shards[s].view
			var b, e uint32
			if v.groupLen(v.offP, p[1]) <= v.groupLen(v.offO, p[2]) {
				b, e = v.range2Bounds(v.offP, v.keyPO, p[1], p[2])
			} else {
				b, e = v.range2Bounds(v.offO, v.keyOP, p[2], p[1])
			}
			n += int(e - b)
		}
		return n
	case pB:
		if k := int(p[1]); k < sg.nIRIs {
			return int(sg.cntP[k+1] - sg.cntP[k])
		}
		return 0
	case oB:
		if k := int(p[2]); k < sg.nIRIs {
			return int(sg.cntO[k+1] - sg.cntO[k])
		}
		return 0
	default:
		return len(sg.all)
	}
}

// Shard folds the overlay and the base into one new sharded base with
// n shards (n ≥ 1; Shard panics otherwise — the shard count is a
// programming decision, not data). Like Freeze it returns its receiver
// and is idempotent: a graph without an overlay already sharded n ways
// is returned as is. A different n re-partitions from the
// insertion-order slice; on a frozen base the sharded view replaces
// the frozen one. Shard is a write operation: it must not run
// concurrently with reads or other writes; afterwards a graph without
// an overlay is safe for any number of concurrent readers.
//
// Every read operation returns the same triples in the same insertion
// order as on the frozen backend — the base shapes are mutually
// unobservable (pinned by internal/rdf/backendtest).
func (g *Graph) Shard(n int) *Graph {
	if n < 1 {
		panic("rdf: Shard: shard count must be ≥ 1")
	}
	if g.ovl != nil {
		// Fold the overlay into a fresh base before partitioning; the
		// same-shard-count early return must not fire on a stale view.
		g.foldOverlay()
	} else if g.shd != nil && g.shd.n == n {
		return g
	}
	g.shd, g.frz = shardGraph(g, n), nil
	return g
}

// Sharded reports whether the graph currently uses the sharded backend.
func (g *Graph) Sharded() bool { return g.shd != nil }

// Shards returns the graph's sharded view, or nil when the graph is
// not sharded.
func (g *Graph) Shards() *ShardedGraph { return g.shd }

// ShardCount returns the number of shards (1 when the graph is not
// sharded — the whole graph is one partition).
func (g *Graph) ShardCount() int {
	if g.shd != nil {
		return g.shd.n
	}
	return 1
}

// ShardOf returns the shard holding the encoded triple (0 when the
// graph is not sharded). The shard of a triple is a pure function of
// its subject, so the parallel enumeration layer can group work by
// shard without touching the indexes.
func (g *Graph) ShardOf(t IDTriple) int {
	if g.shd != nil {
		return shardOfID(t[0], g.shd.n)
	}
	return 0
}
