package server

import (
	"bufio"
	"encoding/json"
	"strconv"

	"wdsparql"
	"wdsparql/internal/rdf"
)

// Result encoders: each serialises one solution stream incrementally —
// a prologue carrying the variable names, one fragment per row straight
// off the zero-decode Rows iterator, and an epilogue that closes the
// document so that even a truncated stream (deadline, client gone,
// drain) is syntactically valid output. Encoders write into the
// handler's bufio.Writer; the handler owns flushing (and the write
// deadlines armed around it).

// resultEncoder is one streamed serialisation of a solution stream.
type resultEncoder interface {
	contentType() string
	// begin writes the prologue (the head/vars of the result set). The
	// handler flushes right after it, putting the first response bytes
	// on the wire before the enumeration has produced a single row.
	begin() error
	// row appends one solution. The row aliases the enumeration's
	// working row and is only valid during the call.
	row(r wdsparql.Row) error
	// end closes the document. truncated marks a stream stopped by a
	// deadline or cancellation rather than exhaustion; encoders that
	// can carry the flag in-band do so.
	end(truncated bool) error
}

const (
	formatJSON = "json"
	formatTSV  = "tsv"

	contentTypeJSON = "application/sparql-results+json"
	contentTypeTSV  = "text/tab-separated-values; charset=utf-8"
)

func newEncoder(format string, w *bufio.Writer, layout *wdsparql.SlotLayout, dict *rdf.Dict) resultEncoder {
	if format == formatTSV {
		return &tsvEncoder{w: w, layout: layout, dict: dict}
	}
	return &jsonEncoder{w: w, layout: layout, dict: dict}
}

// jsonEncoder streams the SPARQL 1.1 Query Results JSON format:
//
//	{"head":{"vars":[…]},"results":{"bindings":[…]},"truncated":true?}
//
// The non-standard top-level "truncated" member appears only on
// streams cut short; the document is always complete, valid JSON.
// begin renders each slot's binding prefix once; row appends a whole
// binding into a reused buffer and hands it to the writer in one Write.
type jsonEncoder struct {
	w      *bufio.Writer
	layout *wdsparql.SlotLayout
	dict   *rdf.Dict
	n      int
	keys   [][]byte // per slot: "name":{"type":"uri","value":
	buf    []byte
}

func (e *jsonEncoder) contentType() string { return contentTypeJSON }

func (e *jsonEncoder) begin() error {
	b := append(e.buf[:0], `{"head":{"vars":[`...)
	e.keys = make([][]byte, e.layout.Width())
	for s := range e.keys {
		if s > 0 {
			b = append(b, ',')
		}
		name := appendJSONString(nil, e.layout.Name(s))
		b = append(b, name...)
		e.keys[s] = append(name, `:{"type":"uri","value":`...)
	}
	b = append(b, `]},"results":{"bindings":[`...)
	e.buf = b
	_, err := e.w.Write(b)
	return err
}

func (e *jsonEncoder) row(r wdsparql.Row) error {
	b := e.buf[:0]
	if e.n > 0 {
		b = append(b, ',')
	}
	e.n++
	b = append(b, '{')
	first := true
	for s, v := range r {
		if v == wdsparql.Unbound {
			continue
		}
		if !first {
			b = append(b, ',')
		}
		first = false
		b = append(b, e.keys[s]...)
		b = appendJSONString(b, e.dict.StringOf(v))
		b = append(b, '}')
	}
	b = append(b, '}')
	e.buf = b
	_, err := e.w.Write(b)
	return err
}

func (e *jsonEncoder) end(truncated bool) error {
	e.w.WriteString(`]}`)
	if truncated {
		e.w.WriteString(`,"truncated":true`)
	}
	_, err := e.w.WriteString("}\n")
	return err
}

// tsvEncoder streams the SPARQL 1.1 TSV results format: a header line
// of ?-prefixed variable names, then one line per solution with IRIs
// in angle brackets and unbound positions empty. Like the JSON
// encoder, row renders the whole line into a reused buffer first.
type tsvEncoder struct {
	w      *bufio.Writer
	layout *wdsparql.SlotLayout
	dict   *rdf.Dict
	buf    []byte
}

func (e *tsvEncoder) contentType() string { return contentTypeTSV }

func (e *tsvEncoder) begin() error {
	for s := 0; s < e.layout.Width(); s++ {
		if s > 0 {
			e.w.WriteByte('\t')
		}
		e.w.WriteByte('?')
		e.w.WriteString(e.layout.Name(s))
	}
	return e.w.WriteByte('\n')
}

func (e *tsvEncoder) row(r wdsparql.Row) error {
	b := e.buf[:0]
	for s, v := range r {
		if s > 0 {
			b = append(b, '\t')
		}
		if v != wdsparql.Unbound {
			b = append(b, '<')
			b = appendTSVValue(b, e.dict.StringOf(v))
			b = append(b, '>')
		}
	}
	b = append(b, '\n')
	e.buf = b
	_, err := e.w.Write(b)
	return err
}

// appendTSVValue appends an IRI as a TSV field with the SPARQL 1.1 TSV
// escapes: a raw tab or newline inside a value would split the field or
// the row, so \t, \n, \r and \ itself are backslash-escaped.
func appendTSVValue(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		var esc byte
		switch s[i] {
		case '\t':
			esc = 't'
		case '\n':
			esc = 'n'
		case '\r':
			esc = 'r'
		case '\\':
			esc = '\\'
		default:
			continue
		}
		b = append(append(b, s[start:i]...), '\\', esc)
		start = i + 1
	}
	return append(b, s[start:]...)
}

func (e *tsvEncoder) end(bool) error {
	// TSV carries no in-band structure to close: a truncated stream is
	// simply a shorter, still-valid document.
	return nil
}

// appendJSONString appends s as a JSON string literal. Plain ASCII —
// the shape of virtually every IRI and variable name — is copied
// directly; anything needing escapes falls back to encoding/json.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// jsonErrorBody renders a one-field JSON error document.
func jsonErrorBody(msg string) []byte {
	b, err := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	if err != nil {
		return []byte(`{"error":` + strconv.Quote("encoding failure") + `}`)
	}
	return append(b, '\n')
}
