package server

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"testing"

	"wdsparql"
	"wdsparql/internal/rdf"
)

// End-to-end coverage for the SELECT/FILTER surface and the TSV value
// escaping (regression: raw tabs and newlines inside IRIs used to
// split fields and rows of the TSV stream).

func TestTSVEscapesHostileIRIs(t *testing.T) {
	// The line-oriented graph parser cannot carry these values;
	// AddTriple takes them verbatim.
	g := wdsparql.NewGraph()
	g.AddTriple("s\tub", "p", "o\nbj\\x")
	g.AddTriple("cr\rriage", "p", "plain")
	_, base := startServer(t, Config{Engine: wdsparql.NewEngine(g)})

	resp, err := http.Get(sparqlURL(base, `(?x p ?y)`, url.Values{"format": {"tsv"}}))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("a raw newline split the stream: %d lines\n%q", len(lines), body)
	}
	if lines[0] != "?x\t?y" {
		t.Fatalf("header = %q", lines[0])
	}
	rows := lines[1:]
	sort.Strings(rows)
	want := []string{
		"<cr\\rriage>\t<plain>",
		"<s\\tub>\t<o\\nbj\\\\x>",
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("row %d = %q, want %q", i, rows[i], want[i])
		}
		if n := strings.Count(rows[i], "\t"); n != 1 {
			t.Fatalf("row %d has %d field separators: %q", i, n, rows[i])
		}
	}
}

// TestJSONEscapesHostileIRIs is the JSON twin of
// TestTSVEscapesHostileIRIs: values carrying quotes, backslashes,
// control characters and non-ASCII bytes must come back from a JSON
// decoder exactly as stored, and a plain stream with an unbound slot
// must keep its exact bytes, as must the truncation epilogue.
func TestJSONEscapesHostileIRIs(t *testing.T) {
	hostile := []string{
		`q"uote`,
		`back\slash`,
		"ctl\x01\x1fchar",
		"tab\tnl\n",
		"caf\u00e9/\u65e5\u672c",
		"<&>",
	}
	g := wdsparql.NewGraph()
	for _, v := range hostile {
		g.AddTriple(v, "p", v+"!")
	}
	_, base := startServer(t, Config{Engine: wdsparql.NewEngine(g)})
	resp, err := http.Get(sparqlURL(base, `(?x p ?y)`, nil))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	doc := decodeResults(t, resp.Body)
	resp.Body.Close()
	if len(doc.Results.Bindings) != len(hostile) {
		t.Fatalf("%d bindings, want %d", len(doc.Results.Bindings), len(hostile))
	}
	var got []string
	for _, b := range doc.Results.Bindings {
		if b["x"].Type != "uri" || b["y"].Type != "uri" || b["y"].Value != b["x"].Value+"!" {
			t.Fatalf("binding did not round-trip: %+v", b)
		}
		got = append(got, b["x"].Value)
	}
	sort.Strings(got)
	want := append([]string(nil), hostile...)
	sort.Strings(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d = %q, want %q", i, got[i], want[i])
		}
	}

	// The exact bytes of a plain stream: two rows, the second leaving
	// ?z unbound (omitted from its binding).
	_, base = startServer(t, Config{Engine: wdsparql.NewEngine(
		wdsparql.MustParseGraph("a p b .\nc p d .\nb q e .\n"))})
	resp, err = http.Get(sparqlURL(base, `((?x p ?y) OPT (?y q ?z))`, nil))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	const golden = `{"head":{"vars":["x","y","z"]},"results":{"bindings":[` +
		`{"x":{"type":"uri","value":"a"},"y":{"type":"uri","value":"b"},"z":{"type":"uri","value":"e"}},` +
		`{"x":{"type":"uri","value":"c"},"y":{"type":"uri","value":"d"}}]}}` + "\n"
	if string(body) != golden {
		t.Fatalf("body =\n%s\nwant\n%s", body, golden)
	}

	// The truncation epilogue, straight off the encoder: a stream cut
	// by a deadline closes with the in-band marker.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	layout := rdf.NewSlotLayout()
	layout.Intern("x")
	layout.Intern("y")
	d := rdf.NewDict()
	enc := newEncoder(formatJSON, bw, layout, d)
	if err := enc.begin(); err != nil {
		t.Fatal(err)
	}
	if err := enc.row(rdf.Row{d.InternIRI("a"), rdf.Unbound}); err != nil {
		t.Fatal(err)
	}
	if err := enc.end(true); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	const truncated = `{"head":{"vars":["x","y"]},"results":{"bindings":[` +
		`{"x":{"type":"uri","value":"a"}}]},"truncated":true}` + "\n"
	if buf.String() != truncated {
		t.Fatalf("truncated body =\n%s\nwant\n%s", buf.String(), truncated)
	}
}

func TestSelectFilterOverHTTP(t *testing.T) {
	_, base := startServer(t, Config{Engine: testEngine(t, 4)})
	const q = `SELECT ?x WHERE ((?x p ?y) FILTER ?y != o1)`

	// JSON: only the projected variable appears, in head and bindings.
	resp, err := http.Get(sparqlURL(base, q, nil))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	doc := decodeResults(t, resp.Body)
	resp.Body.Close()
	if len(doc.Head.Vars) != 1 || doc.Head.Vars[0] != "x" {
		t.Fatalf("head vars = %v", doc.Head.Vars)
	}
	var got []string
	for _, b := range doc.Results.Bindings {
		if len(b) != 1 {
			t.Fatalf("binding leaks unprojected variables: %v", b)
		}
		got = append(got, b["x"].Value)
	}
	sort.Strings(got)
	if strings.Join(got, " ") != "s0 s2 s3" {
		t.Fatalf("filtered bindings = %v", got)
	}

	// TSV: header lists only the projected variable.
	resp, err = http.Get(sparqlURL(base, q, url.Values{"format": {"tsv"}}))
	if err != nil {
		t.Fatalf("GET tsv: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if lines[0] != "?x" {
		t.Fatalf("tsv header = %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("tsv rows = %d, want 3", len(lines)-1)
	}
}

func TestSelectDistinctOverHTTP(t *testing.T) {
	// The cross product has 4⁴ full rows; projected to ?y and
	// deduplicated it collapses to the 4 objects.
	_, base := startServer(t, Config{Engine: testEngine(t, 4)})
	resp, err := http.Get(sparqlURL(base,
		`SELECT DISTINCT ?y WHERE ((?x p ?y) AND (?z p ?w))`, nil))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	doc := decodeResults(t, resp.Body)
	if len(doc.Head.Vars) != 1 || doc.Head.Vars[0] != "y" {
		t.Fatalf("head vars = %v", doc.Head.Vars)
	}
	var got []string
	for _, b := range doc.Results.Bindings {
		got = append(got, b["y"].Value)
	}
	sort.Strings(got)
	if strings.Join(got, " ") != "o0 o1 o2 o3" {
		t.Fatalf("distinct stream = %v", got)
	}
}
