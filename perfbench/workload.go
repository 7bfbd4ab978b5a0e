package main

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Workload parameters. Rates are fixed, not derived from the machine,
// so two commits are measured under the same offered load.
const (
	lookupRate  = 1500.0 // lookup: Poisson arrivals per second (open loop)
	scanConns   = 1      // scan: closed-loop connections
	liveRate    = 150.0  // live: reader Poisson arrivals per second (open loop)
	liveLimit   = 1000   // live: row limit on the reader's scan queries
	liveScanPct = 20     // live: percentage of reader requests that are scans
	batchSize   = 5000   // live: triples per /ingest batch (the server default -ingest-batch)
	batchRate   = 1.0    // live: batches per second (open loop)
	refreezeAt  = 40000  // live: -refreeze-at: the overlay grows to ~4% of the base, then compacts
	liveShards  = 4      // live: storage shards
	queryCache  = 128    // -query-cache on every workload
	gate        = 8      // -gate on every workload
)

// lookupTemplate is one anchored query shape: %[1]s is the anchor.
// depth is how many forward hops from the anchor its patterns reach
// (see genIndex.Neighbourhood).
type lookupTemplate struct {
	text  string
	depth int
}

// The lookup templates: small anchored AND/OPT, UNION, FILTER and
// SELECT DISTINCT queries returning a few rows each.
var lookupTemplates = []lookupTemplate{
	{`((%[1]s knows ?y) OPT (?y name ?n))`, 2},
	{`(((%[1]s type ?t) AND (%[1]s name ?n)) OPT (%[1]s worksAt ?o))`, 1},
	{`((%[1]s knows ?y) UNION (%[1]s likes ?y))`, 1},
	{`((%[1]s knows ?y) AND (?y type ?t) FILTER (?t != c0))`, 2},
	{`SELECT DISTINCT ?t WHERE ((%[1]s knows ?y) AND (?y type ?t))`, 2},
	{`((%[1]s knows ?y) OPT ((?y worksAt ?o) OPT (?o name ?on)))`, 3},
	{`((%[1]s likes ?i) AND (?i category ?c))`, 2},
}

// scanQuery is one heavy query over the rare predicates.
type scanQuery struct {
	text   string
	format string
}

// The scan queries: the E9 tree, a UNION forest, a projected DISTINCT
// and a FILTER, each streaming 10⁴–10⁵ rows as JSON, plus the E9 tree
// again as TSV. Their sizes (12k to 48k rows) keep their latencies
// apart, so the median and the p90 of the mix each fall inside one
// query's distribution rather than on the edge between two.
var scanQueries = []scanQuery{
	{`(((?x r0 ?y) OPT ((?y r1 ?z) OPT (?z r2 ?u))) OPT (?y r3 ?w))`, "json"},
	{`(((?x r0 ?y) OPT (?y r1 ?z)) UNION ((?x r2 ?y) OPT (?y r3 ?z)))`, "json"},
	{`SELECT DISTINCT ?x ?u WHERE (((?x r0 ?y) AND (?y r1 ?z)) AND (?z r2 ?u))`, "json"},
	{`((?x r0 ?y) AND (?y r1 ?z) FILTER (?x != ?z))`, "json"},
	{`(((?x r0 ?y) OPT ((?y r1 ?z) OPT (?z r2 ?u))) OPT (?y r3 ?w))`, "tsv"},
}

// Request is one read of a workload's sequence.
type Request struct {
	Text   string
	Format string
	Limit  int    // -1: none
	Anchor string // lookup: the anchor entity
	Depth  int    // lookup: neighbourhood depth of the reference
	Scan   int    // scan: index into scanQueries; -1 for lookups
	Due    time.Duration
	Path   string // request path with its query string
}

func newRequest(text, format string, limit int) Request {
	v := url.Values{"query": {text}}
	if format == "tsv" {
		v.Set("format", "tsv")
	}
	if limit >= 0 {
		v.Set("limit", strconv.Itoa(limit))
	}
	return Request{Text: text, Format: format, Limit: limit, Scan: -1, Path: "/sparql?" + v.Encode()}
}

func lookupRequest(z *zipf, t int) Request {
	anchor := ent(z.next())
	tpl := lookupTemplates[t]
	r := newRequest(fmt.Sprintf(tpl.text, anchor), "json", -1)
	r.Anchor, r.Depth = anchor, tpl.depth
	return r
}

func scanRequest(i, limit int) Request {
	q := scanQueries[i]
	r := newRequest(q.text, q.format, limit)
	r.Scan = i
	return r
}

// LookupSequence returns the open-loop lookup arrivals of a run of the
// given length: seeded Poisson arrival times and seeded Zipf anchors.
func LookupSequence(seed uint64, seconds float64) []Request {
	r := newRand(seed, 4)
	z := newZipf(r, nEnt, seed)
	var out []Request
	var at float64
	for {
		at += r.ExpFloat64() / lookupRate
		if at >= seconds {
			return out
		}
		req := lookupRequest(z, r.IntN(len(lookupTemplates)))
		req.Due = time.Duration(at * float64(time.Second))
		out = append(out, req)
	}
}

// ScanSequence returns connection c's closed-loop scan sequence: the
// scan queries round-robin, each connection starting at its own offset.
func ScanSequence(c, n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = scanRequest((c*len(scanQueries)/scanConns+i)%len(scanQueries), -1)
	}
	return out
}

// LiveReads returns the live reader's open-loop arrivals over a run of
// the given length: seeded Poisson arrival times, lookups with every
// so often the E9 tree scan under a row limit.
func LiveReads(seed uint64, seconds float64) []Request {
	r := newRand(seed, 5)
	z := newZipf(r, nEnt, seed)
	var out []Request
	var at float64
	for {
		at += r.ExpFloat64() / liveRate
		if at >= seconds {
			return out
		}
		var req Request
		if r.IntN(100) < liveScanPct {
			req = scanRequest(0, liveLimit) // the E9 tree: one shape, so p90 sits inside it
		} else {
			req = lookupRequest(z, r.IntN(len(lookupTemplates)))
		}
		req.Due = time.Duration(at * float64(time.Second))
		out = append(out, req)
	}
}

// ntBody renders a write batch as an /ingest body.
func ntBody(batch []Triple) string {
	var b strings.Builder
	if err := WriteNT(&b, batch); err != nil {
		panic(err) // strings.Builder never fails
	}
	return b.String()
}
