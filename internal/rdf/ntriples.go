package rdf

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// This file implements a small line-oriented serialisation for ground
// RDF graphs, a pragmatic subset of N-Triples: one triple per line,
// three whitespace-separated terms, an optional trailing ".", "#"
// comments, and optional angle brackets around IRIs. Variables are not
// permitted in data files (graphs are ground).

// MaxLineLen is the default bound on a single input line of ReadGraph.
// It exists so a malformed (or hostile) input cannot make the reader
// buffer an unbounded line; lines beyond the bound fail with an error
// naming the offending line. ReadGraphMaxLine configures it per call.
const MaxLineLen = 16 << 20 // 16 MiB

// ReadGraph parses a graph from r. Gzipped input is detected by its
// magic bytes and decompressed transparently, so `wdserve -data g.nt.gz`
// and a plain file behave identically. It returns the first syntax
// error encountered, annotated with a line number — including lines
// longer than MaxLineLen. Line numbers always count decompressed
// lines, so an error in a gzipped dump points at the same line as in
// the plain dump. The graph is bulk-loaded through a GraphBuilder and
// returned frozen (see Graph.Freeze): cold load is one interning pass
// plus one compaction, and the result is immediately ready for
// concurrent readers. Writes to it go to its overlay.
func ReadGraph(r io.Reader) (*Graph, error) {
	return readGraph(r, MaxLineLen, nil)
}

// ReadGraphMaxLine is ReadGraph with an explicit bound on the length
// of a single input line (maxLine ≤ 0 means MaxLineLen). The bound is
// a robustness guard, not a format limit: any line up to the bound is
// parsed whole, however large.
func ReadGraphMaxLine(r io.Reader, maxLine int) (*Graph, error) {
	return readGraph(r, maxLine, nil)
}

// ProgressFunc receives load progress: bytes is the cumulative count
// of raw input bytes consumed from the underlying reader (compressed
// bytes for gzipped input, and slightly ahead of parsing due to
// buffering), triples the cumulative count of data lines parsed.
// Callbacks arrive every progressStride triples and once at the end of
// input; wdserve's ingest endpoint and the cmd tools use them to
// report long loads without instrumenting the parse loop themselves.
type ProgressFunc func(bytes int64, triples int)

// progressStride is how many parsed triples pass between two progress
// callbacks: frequent enough for responsive reporting, rare enough
// that the callback never shows up in a load profile.
const progressStride = 1 << 14

// ReadGraphWithProgress is ReadGraph with a progress callback
// (progress may be nil).
func ReadGraphWithProgress(r io.Reader, progress ProgressFunc) (*Graph, error) {
	return readGraph(r, MaxLineLen, progress)
}

// countingReader counts raw bytes consumed from the wrapped reader; it
// sits below the gzip layer so progress reflects input consumed, which
// is what an operator watching a bounded upload wants to see.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func readGraph(r io.Reader, maxLine int, progress ProgressFunc) (*Graph, error) {
	b := NewGraphBuilder(0)
	cr := &countingReader{r: r}
	triples := 0
	err := DecodeTriples(cr, maxLine, func(s, p, o string) error {
		b.AddTriple(s, p, o)
		triples++
		if progress != nil && triples%progressStride == 0 {
			progress(cr.n, triples)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if progress != nil {
		progress(cr.n, triples)
	}
	return b.Graph(), nil
}

// DecodeTriples streams the ReadGraph format: it parses r (gzip
// auto-detected) line by line and calls fn once per data triple, in
// input order, with the bare IRI values of the three positions. A
// non-nil error from fn aborts the decode and is returned unwrapped.
// maxLine ≤ 0 means MaxLineLen. This is the single decode loop behind
// ReadGraph and the parallel ingest pipeline's equivalence tests.
func DecodeTriples(r io.Reader, maxLine int, fn func(s, p, o string) error) error {
	if maxLine <= 0 {
		maxLine = MaxLineLen
	}
	br := bufio.NewReaderSize(r, 64*1024)
	// Gzip auto-detection: sniff the two magic bytes without consuming
	// them (a short Peek just means the input is shorter than a gzip
	// header, so it cannot be gzip). Corrupt gzip streams surface as
	// read errors below, never as silent truncation — the gzip reader
	// checks the trailing CRC before reporting EOF. Line numbers are
	// counted on the decompressed stream, below this branch, so they
	// are identical for a dump and its gzipped form.
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return fmt.Errorf("rdf: gzip input: %w", err)
		}
		defer zr.Close()
		br = bufio.NewReaderSize(zr, 64*1024)
	}
	lineNo := 0
	for {
		line, err := readLine(br, maxLine)
		if err == errLineTooLong {
			return fmt.Errorf("rdf: line %d: line exceeds %d bytes", lineNo+1, maxLine)
		}
		if err != nil && err != io.EOF {
			return fmt.Errorf("rdf: read: %w", err)
		}
		if len(line) == 0 && err == io.EOF {
			break
		}
		lineNo++
		s, p, o, ok, perr := ParseDataLine(line)
		if perr != nil {
			return fmt.Errorf("rdf: line %d: %w", lineNo, perr)
		}
		if ok {
			if ferr := fn(s, p, o); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			break
		}
	}
	return nil
}

// ParseDataLine parses one line of the ReadGraph format into the bare
// IRI values of a triple. ok is false for blank lines and comments.
// The ingest pipeline's chunk workers call this directly on the lines
// of their chunk, so the parallel path parses byte-identically to the
// sequential one.
func ParseDataLine(line string) (s, p, o string, ok bool, err error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return "", "", "", false, nil
	}
	line = strings.TrimSuffix(line, ".")
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return "", "", "", false, fmt.Errorf("expected 3 terms, got %d", len(fields))
	}
	var terms [3]Term
	for i, f := range fields {
		t, err := parseDataTerm(f)
		if err != nil {
			return "", "", "", false, err
		}
		terms[i] = t
	}
	return terms[0].Value, terms[1].Value, terms[2].Value, true, nil
}

// errLineTooLong is readLine's sentinel for a line beyond the bound;
// ReadGraphMaxLine converts it into an error carrying the line number.
var errLineTooLong = fmt.Errorf("line too long")

// readLine reads one \n-terminated line (the terminator is stripped)
// of at most maxLine bytes. It returns io.EOF together with the final
// unterminated line, if any, and errLineTooLong as soon as the line is
// known to exceed the bound — without buffering the rest of it.
func readLine(br *bufio.Reader, maxLine int) (string, error) {
	var buf []byte
	for {
		frag, err := br.ReadSlice('\n')
		if len(buf)+len(frag) > maxLine+1 { // +1: the \n itself is not counted
			return "", errLineTooLong
		}
		if err == nil || err == io.EOF {
			if buf == nil {
				return strings.TrimSuffix(string(frag), "\n"), err
			}
			buf = append(buf, frag...)
			return strings.TrimSuffix(string(buf), "\n"), err
		}
		if err != bufio.ErrBufferFull {
			return "", err
		}
		buf = append(buf, frag...)
	}
}

// ParseGraph parses a graph from a string.
func ParseGraph(s string) (*Graph, error) {
	return ReadGraph(strings.NewReader(s))
}

// MustParseGraph is ParseGraph that panics on error; for tests and
// examples with literal data.
func MustParseGraph(s string) *Graph {
	g, err := ParseGraph(s)
	if err != nil {
		panic(err)
	}
	return g
}

func parseDataTerm(f string) (Term, error) {
	if strings.HasPrefix(f, "?") {
		return Term{}, fmt.Errorf("variable %q not allowed in data", f)
	}
	if strings.HasPrefix(f, "<") {
		if !strings.HasSuffix(f, ">") {
			return Term{}, fmt.Errorf("unterminated IRI %q", f)
		}
		f = strings.TrimSuffix(strings.TrimPrefix(f, "<"), ">")
	}
	if f == "" {
		return Term{}, fmt.Errorf("empty term")
	}
	return IRI(f), nil
}

// WriteGraph writes g to w, one triple per line with a trailing ".",
// in deterministic order.
func WriteGraph(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, t := range g.Triples() {
		if _, err := fmt.Fprintf(bw, "%s %s %s .\n", t.S.Value, t.P.Value, t.O.Value); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FormatGraph renders g as a string in the WriteGraph format.
func FormatGraph(g *Graph) string {
	var b strings.Builder
	_ = WriteGraph(&b, g)
	return b.String()
}
