package wdsparql

// This file is the live-write path of the engine: generations instead
// of mutation. An Engine is immutable — its readers stream from sealed
// storage with no locks — so writes cannot go into the engine they
// would disturb. Instead, ApplyDelta forks the graph (shared sealed
// base + copy-on-write dictionary + mutable overlay, see
// rdf.Graph.Fork and rdf/overlay.go) and returns a NEW engine over the
// fork; the caller (internal/server holds the canonical example, with
// refcounted generation swap) publishes the new engine and retires the
// old one once its in-flight readers drain. Refreeze compacts an
// engine's overlay into a fresh sealed base the same way: fork,
// compact, new engine — the old generation's readers never observe the
// compaction. Nothing is ever mutated in place, which is exactly why
// no reader is ever blocked or dropped.

import (
	"wdsparql/internal/rdf"
)

// withGraph returns a new engine over g carrying e's options. It copies
// the whole Engine value, so every option — present or future — carries
// over, and resets only the graph and the query cache: prepared queries
// are compiled against a specific graph. It does NOT re-seal g (unlike
// NewEngine): the generation path hands over a fork carrying an
// overlay, or a freshly compacted base, and re-sealing would fold the
// overlay eagerly, defeating the cheap-fork design.
func (e *Engine) withGraph(g *rdf.Graph) *Engine {
	ne := *e
	ne.g = g
	ne.qcache = newLRUCache[*PreparedQuery](ne.qcacheCap)
	return &ne
}

// ApplyDelta returns a new engine generation whose graph contains e's
// triples plus ts (duplicates are dropped), without touching e: e's
// graph, dictionary and in-flight query streams are untouched, so
// readers of the old generation keep streaming while the new one is
// built. The new triples live in a mutable overlay on the shared
// sealed base; every read path of the new engine merges them in exact
// insertion order (base first, delta after). Cost is O(existing
// overlay + |ts|), independent of graph size.
//
// The batch is applied atomically in the sense that matters to a
// serving layer: no engine ever exposes a partial batch, because the
// only engine that contains any of ts is the returned one, which
// contains all of ts before any caller can see it.
//
// After ApplyDelta the receiver must be treated as read-only (its
// dictionary is the fork parent); serve from it, but route further
// ApplyDelta/Refreeze calls to the returned generation.
func (e *Engine) ApplyDelta(ts []Triple) *Engine {
	g := e.g.Fork()
	for _, t := range ts {
		g.Add(t)
	}
	return e.withGraph(g)
}

// Refreeze returns a new engine generation with e's overlay compacted
// into a fresh sealed base — frozen if e's base is frozen, re-sharded
// with the same shard count if sharded — restoring pure-CSR read
// performance. Like ApplyDelta it never mutates e: the compaction
// happens on a fork while e's readers keep streaming from the old
// generation. Refreeze on an engine without an overlay returns a
// generation sharing all storage (cheap, and harmless).
func (e *Engine) Refreeze() *Engine {
	return e.withGraph(e.g.Fork().Compact())
}

// OverlayLen reports the number of triples in the engine graph's
// overlay write layer — the serving layer's re-freeze trigger.
func (e *Engine) OverlayLen() int { return e.g.OverlayLen() }
