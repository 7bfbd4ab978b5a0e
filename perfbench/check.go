package main

import (
	"fmt"

	"wdsparql/internal/sparql"
)

// The answer check. References come from the compositional evaluator
// — bottom-up materialisation, a different algorithm from the
// server's top-down enumeration — run by the generator on the data it
// generated itself:
//
//   - a lookup with sparql.EvalID on the anchor's neighbourhood at the
//     generation the response may have seen (see
//     genIndex.Neighbourhood);
//   - a scan with sparql.EvalHashJoinID (the same semantics with hash
//     operators; the nested-loop EvalID takes seconds on these
//     results) on the graph restricted to the rare predicates, the
//     only ones scan queries mention.
//
// Every check runs after the timed window.

// refs computes and memoises reference answers.
type refs struct {
	ix     *genIndex
	scan   []Answer
	scanRH []map[uint64]bool
	lookup map[lookupKey]Answer
}

type lookupKey struct {
	text string
	gen  int
}

func newRefs(ix *genIndex) *refs {
	return &refs{ix: ix, lookup: map[lookupKey]Answer{}}
}

// scanRef returns the reference of scan query i and its row hashes.
func (r *refs) scanRef(i int) (Answer, map[uint64]bool) {
	if r.scan == nil {
		rare := r.ix.RareGraph()
		r.scan = make([]Answer, len(scanQueries))
		r.scanRH = make([]map[uint64]bool, len(scanQueries))
		for j, q := range scanQueries {
			rh := map[uint64]bool{}
			r.scan[j] = RefAnswer(sparql.EvalHashJoinID(sparql.MustParse(q.text), rare), rare.Dict(), rh)
			r.scanRH[j] = rh
		}
	}
	return r.scan[i], r.scanRH[i]
}

// lookupRef returns the reference of a lookup at write generation gen.
func (r *refs) lookupRef(req *Request, gen int) Answer {
	k := lookupKey{req.Text, gen}
	if a, ok := r.lookup[k]; ok {
		return a
	}
	g := r.ix.Neighbourhood(req.Anchor, req.Depth, gen)
	a := RefAnswer(sparql.EvalID(sparql.MustParse(req.Text), g), g.Dict(), nil)
	r.lookup[k] = a
	return a
}

// check verifies one complete response; genLo..genHi are the write
// generations the response may have been computed at.
func (r *refs) check(req *Request, got Answer, rows []uint64, genLo, genHi int) error {
	if req.Scan >= 0 {
		want, rh := r.scanRef(req.Scan)
		if req.Limit < 0 {
			if got != want {
				return fmt.Errorf("scan %d: got %d rows (hash %x), want %d (hash %x)", req.Scan, got.Rows, got.Hash, want.Rows, want.Hash)
			}
			return nil
		}
		// A limited scan returns some min(limit, |answer|) rows of the
		// answer, each at most once.
		if n := min(req.Limit, want.Rows); got.Rows != n {
			return fmt.Errorf("scan %d limit %d: got %d rows, want %d", req.Scan, req.Limit, got.Rows, n)
		}
		seen := make(map[uint64]bool, len(rows))
		for _, h := range rows {
			if !rh[h] || seen[h] {
				return fmt.Errorf("scan %d limit %d: row outside the answer or repeated", req.Scan, req.Limit)
			}
			seen[h] = true
		}
		return nil
	}
	for gen := genLo; gen <= genHi; gen++ {
		if r.lookupRef(req, gen) == got {
			return nil
		}
	}
	want := r.lookupRef(req, genLo)
	return fmt.Errorf("lookup %q: got %d rows (hash %x), want %d (hash %x) at generations %d..%d",
		req.Text, got.Rows, got.Hash, want.Rows, want.Hash, genLo, genHi)
}
