package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"wdsparql"
	"wdsparql/internal/rdf"
	"wdsparql/internal/server"
	"wdsparql/internal/sparql"
)

func graphDigest(t *testing.T, seed uint64) [32]byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteNT(&b, GenGraph(seed)); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b.Bytes())
}

// TestDeterministicPerSeed: the same seed gives the same data bytes
// and the same request sequences; another seed gives other data.
func TestDeterministicPerSeed(t *testing.T) {
	if graphDigest(t, 7) != graphDigest(t, 7) {
		t.Fatal("GenGraph(7) differs between calls")
	}
	if graphDigest(t, 7) == graphDigest(t, 8) {
		t.Fatal("GenGraph(7) and GenGraph(8) are identical")
	}
	if !reflect.DeepEqual(LookupSequence(7, 1), LookupSequence(7, 1)) {
		t.Fatal("LookupSequence differs between calls")
	}
	if reflect.DeepEqual(LookupSequence(7, 1), LookupSequence(8, 1)) {
		t.Fatal("LookupSequence ignores the seed")
	}
	if !reflect.DeepEqual(LiveReads(7, 2), LiveReads(7, 2)) {
		t.Fatal("LiveReads differs between calls")
	}
	if !reflect.DeepEqual(GenBatches(7, 3, 100), GenBatches(7, 3, 100)) {
		t.Fatal("GenBatches differs between calls")
	}
	if !reflect.DeepEqual(ScanSequence(1, 12), ScanSequence(1, 12)) {
		t.Fatal("ScanSequence differs between calls")
	}
}

// smallData is a hand-sized graph with every predicate the templates
// and scan queries use.
func smallData() []Triple {
	var ts []Triple
	for i := 0; i < 40; i++ {
		e := fmt.Sprintf("e%d", i)
		ts = append(ts,
			Triple{e, "type", fmt.Sprintf("c%d", i%3)},
			Triple{e, "name", fmt.Sprintf("n%d", i)},
			Triple{e, "knows", fmt.Sprintf("e%d", (i*7+1)%40)},
			Triple{e, "knows", fmt.Sprintf("e%d", (i*3+2)%40)},
			Triple{e, "likes", fmt.Sprintf("i%d", i%5)},
			Triple{e, fmt.Sprintf("r%d", i%4), fmt.Sprintf("e%d", (i*5+3)%40)},
			Triple{e, fmt.Sprintf("r%d", (i+1)%4), fmt.Sprintf("e%d", (i*11+1)%40)})
		if i%2 == 0 {
			ts = append(ts, Triple{e, "worksAt", fmt.Sprintf("o%d", i%4)})
		}
	}
	for j := 0; j < 5; j++ {
		ts = append(ts, Triple{fmt.Sprintf("i%d", j), "category", fmt.Sprintf("cat%d", j%2)})
	}
	for k := 0; k < 4; k++ {
		ts = append(ts, Triple{fmt.Sprintf("o%d", k), "name", fmt.Sprintf("on%d", k)})
	}
	return ts
}

func graphOf(ts []Triple) *rdf.Graph {
	g := rdf.NewGraph()
	for _, t := range ts {
		g.AddTriple(t.S, t.P, t.O)
	}
	return g
}

// serveBody runs one request through the real server, in process.
func serveBody(t *testing.T, g *rdf.Graph, req *Request) []byte {
	t.Helper()
	srv := server.New(server.Config{Engine: wdsparql.NewEngine(g)})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, req.Path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", req.Text, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

func scanChunked(req *Request, body []byte) (Answer, []uint64, error) {
	sc := newScanner(req.Format, req.Limit >= 0)
	// Feed in small chunks to exercise chunk boundaries.
	for len(body) > 0 {
		n := min(len(body), 7)
		if err := sc.feed(body[:n]); err != nil {
			return Answer{}, nil, err
		}
		body = body[n:]
	}
	a, err := sc.finish()
	return a, sc.rows(), err
}

func allRequests() []Request {
	var out []Request
	for t := range lookupTemplates {
		for _, a := range []string{"e0", "e1", "e2", "e7"} {
			r := newRequest(fmt.Sprintf(lookupTemplates[t].text, a), "json", -1)
			r.Anchor, r.Depth = a, lookupTemplates[t].depth
			out = append(out, r)
		}
	}
	for i := range scanQueries {
		out = append(out, scanRequest(i, -1), scanRequest(i, 5))
	}
	return out
}

// TestAnswerCheck: the real server's answers pass the check, and a
// corrupted or truncated body does not.
func TestAnswerCheck(t *testing.T) {
	data := smallData()
	g := graphOf(data)
	r := newRefs(newGenIndex(data))
	for _, req := range allRequests() {
		body := serveBody(t, g, &req)
		a, rows, err := scanChunked(&req, body)
		if err != nil {
			t.Fatalf("%s: scan: %v", req.Text, err)
		}
		if err := r.check(&req, a, rows, 0, 0); err != nil {
			t.Fatalf("correct answer rejected: %v", err)
		}
		if a.Rows == 0 {
			continue
		}
		// Truncation: drop the document's tail.
		if _, _, err := scanChunked(&req, body[:len(body)-3]); !errors.Is(err, errTruncated) {
			t.Errorf("%s: truncated body accepted (err %v)", req.Text, err)
		}
		// Corruption: change one value byte inside the first row.
		var i int
		if req.Format == "json" {
			i = bytes.Index(body, []byte(`"value":"`)) + len(`"value":"`)
		} else {
			i = bytes.IndexByte(body, '<') + 1
		}
		bad := bytes.Clone(body)
		bad[i] = 'z'
		a, rows, err = scanChunked(&req, bad)
		if err == nil {
			err = r.check(&req, a, rows, 0, 0)
		}
		if err == nil {
			t.Errorf("%s: corrupted body accepted", req.Text)
		}
	}
}

// TestNeighbourhoodReference: on the benchmark's own graph, evaluating
// a lookup on its anchor's neighbourhood gives the full-graph answer.
func TestNeighbourhoodReference(t *testing.T) {
	data := GenGraph(11)
	full := graphOf(data)
	ix := newGenIndex(data)
	z := newZipf(newRand(11, 4), nEnt, 11)
	for tpl := range lookupTemplates {
		for k := 0; k < 2; k++ {
			req := lookupRequest(z, tpl)
			p := sparql.MustParse(req.Text)
			want := RefAnswer(sparql.EvalHashJoinID(p, full), full.Dict(), nil)
			nb := ix.Neighbourhood(req.Anchor, req.Depth, 0)
			got := RefAnswer(sparql.EvalID(p, nb), nb.Dict(), nil)
			if got != want {
				t.Fatalf("%s: neighbourhood answer %+v, full graph %+v", req.Text, got, want)
			}
		}
	}
}

// TestSmoke runs each workload briefly against a real wdserve, with
// and without the traced replay.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds wdserve and loads the full graph")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(bin, "wdserve"), "./cmd/wdserve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building wdserve: %v\n%s", err, out)
	}
	for _, w := range []string{"lookup", "scan", "live"} {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, trace), func(t *testing.T) {
				cfg := config{root: root, bin: bin, work: t.TempDir(), workload: w, seed: 5, seconds: 1, trace: trace}
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				l := res.line
				if !l.Correct || l.Failed != 0 || l.Attempted == 0 {
					t.Fatalf("result %+v, detail %v", l, res.detail["first_failure"])
				}
				want := []string{"setup_s", "qps", "latency_p50_ms", "latency_p90_ms", "server_cpu_ms_per_op", "server_peak_rss_mb"}
				if trace {
					want = []string{"hom.nodes_per_query", "core.rows_ms", "rdf.probe_ns.P", "trace.overhead_frac"}
				}
				for _, k := range want {
					if _, ok := l.Metrics[k]; !ok {
						t.Errorf("metric %s missing", k)
					}
				}
			})
		}
	}
	_ = os.RemoveAll(bin)
}
