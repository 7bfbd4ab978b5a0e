package main

import (
	"bytes"
	"errors"
	"fmt"
	"unicode/utf8"

	"wdsparql/internal/rdf"
)

// Answers are compared as (row count, order-insensitive hash): a row
// hashes the multiset of its (variable, value) bindings, and an answer
// hashes the sum of its row hashes. Response bodies are scanned byte
// by byte — rows counted and hashed, never decoded into maps — so the
// client stays cheap beside the server.

// Answer is the digest of one result set.
type Answer struct {
	Rows int
	Hash uint64
}

func mix(x uint64) uint64 { // splitmix64 finaliser
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// strHash is 64-bit FNV-1a.
func strHash(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func bindingHash(name, value []byte) uint64 {
	return mix(strHash(name) ^ mix(strHash(value)+0x9e3779b97f4a7c15))
}

// rowHasher accumulates one row's bindings.
type rowHasher struct {
	sum uint64
	n   uint64
}

func (r *rowHasher) add(name, value []byte) { r.sum += bindingHash(name, value); r.n++ }
func (r *rowHasher) done() uint64 {
	h := mix(r.sum + r.n)
	*r = rowHasher{}
	return h
}

// RefAnswer digests an ID-native result set (the reference side).
func RefAnswer(set *rdf.IDMappingSet, d *rdf.Dict, rowHashes map[uint64]bool) Answer {
	layout := set.Layout()
	var a Answer
	var rh rowHasher
	set.Each(func(r rdf.Row) bool {
		for s, v := range r {
			if v != rdf.Unbound {
				rh.add([]byte(layout.Name(s)), []byte(d.StringOf(v)))
			}
		}
		h := rh.done()
		if rowHashes != nil {
			rowHashes[h] = true
		}
		a.Rows++
		a.Hash += h
		return true
	})
	return a
}

var (
	errTruncated = errors.New("truncated result document")
	errMalformed = errors.New("malformed result document")
)

// bodyScanner consumes a result body chunk by chunk.
type bodyScanner interface {
	feed(b []byte) error
	finish() (Answer, error)
	rows() []uint64 // per-row hashes, when kept
}

// scanBody counts and hashes a complete result body.
func scanBody(req *Request, body []byte) (Answer, []uint64, error) {
	sc := newScanner(req.Format, req.Limit >= 0)
	if err := sc.feed(body); err != nil {
		return Answer{}, nil, err
	}
	a, err := sc.finish()
	return a, sc.rows(), err
}

func newScanner(format string, keepRows bool) bodyScanner {
	if format == "tsv" {
		return &tsvScanner{keepRows: keepRows}
	}
	return &jsonScanner{keepRows: keepRows}
}

// jsonScanner is a streaming scanner for the SPARQL-JSON results the
// server writes: {"head":{"vars":[…]},"results":{"bindings":[row,…]}}
// where a row is {"var":{"type":"uri","value":"…"},…}. It tracks
// nesting and string state per byte; row objects sit at depth 4 and
// binding objects at depth 5. A document that does not close, or that
// carries the server's "truncated" marker, is an error.
type jsonScanner struct {
	depth     int
	inStr     bool
	esc       int // 0: none, 1: after '\', 2..5: \u hex digits
	uni       rune
	str       []byte
	isKey     [8]bool // per depth: the next string is an object key
	key4      []byte  // current binding's variable name
	key5      []byte  // last key inside a binding object
	row       rowHasher
	ans       Answer
	closed    bool
	truncated bool
	keepRows  bool
	rowHashes []uint64
	lastKey1  []byte
}

var uriBinding = []byte(`{"type":"uri","value":"`)

func (s *jsonScanner) feed(b []byte) error {
	for i := 0; i < len(b); i++ {
		c := b[i]
		if s.inStr && s.esc == 0 {
			// Fast path: copy the string's plain run up to its closing
			// quote or next escape in one step.
			rest := b[i:]
			j := bytes.IndexByte(rest, '"')
			if j < 0 {
				j = len(rest)
			}
			if k := bytes.IndexByte(rest[:j], '\\'); k >= 0 {
				j = k
			}
			s.str = append(s.str, rest[:j]...)
			i += j
			if i == len(b) {
				return nil
			}
			c = b[i]
		}
		if s.inStr {
			if s.esc == 1 {
				s.esc = 0
				switch c {
				case 'n':
					s.str = append(s.str, '\n')
				case 't':
					s.str = append(s.str, '\t')
				case 'r':
					s.str = append(s.str, '\r')
				case 'b':
					s.str = append(s.str, '\b')
				case 'f':
					s.str = append(s.str, '\f')
				case 'u':
					s.esc, s.uni = 2, 0
				default:
					s.str = append(s.str, c)
				}
				continue
			}
			if s.esc >= 2 {
				v, ok := hexVal(c)
				if !ok {
					return errMalformed
				}
				s.uni = s.uni<<4 | v
				if s.esc++; s.esc == 6 {
					s.esc = 0
					s.str = utf8.AppendRune(s.str, s.uni)
				}
				continue
			}
			switch c {
			case '\\':
				s.esc = 1
			case '"':
				s.inStr = false
				s.endString()
			default:
				s.str = append(s.str, c)
			}
			continue
		}
		switch c {
		case '"':
			if s.closed {
				return errMalformed
			}
			s.inStr, s.str = true, s.str[:0]
		case '{':
			if s.closed {
				return errMalformed
			}
			s.depth++
			if s.depth >= len(s.isKey) {
				return errMalformed
			}
			s.isKey[s.depth] = true
		case '[':
			s.depth++
			if s.depth >= len(s.isKey) {
				return errMalformed
			}
			s.isKey[s.depth] = false
		case ',':
			if s.depth > 0 && s.depth < len(s.isKey) {
				s.isKey[s.depth] = s.isObject()
			}
		case ':':
			s.isKey[s.depth] = false
			// Fast path for the server's fixed binding shape: skip
			// straight into the value string of {"type":"uri","value":"…"}.
			if s.depth == 4 && bytes.HasPrefix(b[i+1:], uriBinding) {
				i += len(uriBinding)
				s.depth = 5
				s.key5 = append(s.key5[:0], "value"...)
				s.inStr, s.str = true, s.str[:0]
			}
		case '}', ']':
			if s.depth == 0 {
				return errMalformed
			}
			if c == '}' && s.depth == 4 {
				h := s.row.done()
				s.ans.Rows++
				s.ans.Hash += h
				if s.keepRows {
					s.rowHashes = append(s.rowHashes, h)
				}
			}
			s.depth--
			if s.depth == 0 {
				s.closed = true
			}
		case 't':
			// The literal true only appears as the truncation marker.
			if s.depth == 1 && string(s.lastKey1) == "truncated" {
				s.truncated = true
			}
		}
	}
	return nil
}

// isObject reports whether the container at the current depth is an
// object: in this document shape objects sit at depths 1, 2, 4, 5 and
// arrays at depth 3.
func (s *jsonScanner) isObject() bool { return s.depth != 3 }

func (s *jsonScanner) endString() {
	key := s.isKey[s.depth]
	switch {
	case s.depth == 1 && key:
		s.lastKey1 = append(s.lastKey1[:0], s.str...)
	case s.depth == 4 && key:
		s.key4 = append(s.key4[:0], s.str...)
	case s.depth == 5 && key:
		s.key5 = append(s.key5[:0], s.str...)
	case s.depth == 5 && string(s.key5) == "value":
		s.row.add(s.key4, s.str)
	}
}

func hexVal(c byte) (rune, bool) {
	switch {
	case c >= '0' && c <= '9':
		return rune(c - '0'), true
	case c >= 'a' && c <= 'f':
		return rune(c-'a') + 10, true
	case c >= 'A' && c <= 'F':
		return rune(c-'A') + 10, true
	}
	return 0, false
}

func (s *jsonScanner) finish() (Answer, error) {
	if !s.closed || s.inStr {
		return s.ans, errTruncated
	}
	if s.truncated {
		return s.ans, errTruncated
	}
	return s.ans, nil
}

// tsvScanner scans the server's TSV results: a header of ?-prefixed
// names, then one line per row with <IRI> fields, empty when unbound.
// A body that does not end in a newline is truncated.
type tsvScanner struct {
	line      []byte
	names     [][]byte
	header    bool
	ans       Answer
	row       rowHasher
	keepRows  bool
	rowHashes []uint64
}

func (s *tsvScanner) feed(b []byte) error {
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			s.line = append(s.line, b...)
			return nil
		}
		s.line = append(s.line, b[:i]...)
		if err := s.endLine(); err != nil {
			return err
		}
		s.line = s.line[:0]
		b = b[i+1:]
	}
	return nil
}

func (s *tsvScanner) endLine() error {
	if !s.header {
		s.header = true
		for f := range fields(s.line) {
			if len(f) == 0 || f[0] != '?' {
				return errMalformed
			}
			s.names = append(s.names, append([]byte(nil), f[1:]...))
		}
		return nil
	}
	i := 0
	for f := range fields(s.line) {
		if i >= len(s.names) {
			return fmt.Errorf("%w: row wider than the header", errMalformed)
		}
		if len(f) > 0 {
			if len(f) < 2 || f[0] != '<' || f[len(f)-1] != '>' {
				return errMalformed
			}
			s.row.add(s.names[i], unescapeTSV(f[1:len(f)-1]))
		}
		i++
	}
	if i != len(s.names) {
		return fmt.Errorf("%w: row has %d fields, header %d", errMalformed, i, len(s.names))
	}
	h := s.row.done()
	s.ans.Rows++
	s.ans.Hash += h
	if s.keepRows {
		s.rowHashes = append(s.rowHashes, h)
	}
	return nil
}

// fields yields the tab-separated fields of a line.
func fields(line []byte) func(func([]byte) bool) {
	return func(yield func([]byte) bool) {
		for {
			i := bytes.IndexByte(line, '\t')
			if i < 0 {
				yield(line)
				return
			}
			if !yield(line[:i]) {
				return
			}
			line = line[i+1:]
		}
	}
}

// unescapeTSV undoes the server's \t \n \r \\ escapes (rare: only
// IRIs containing those bytes carry any).
func unescapeTSV(b []byte) []byte {
	if bytes.IndexByte(b, '\\') < 0 {
		return b
	}
	out := make([]byte, 0, len(b))
	for i := 0; i < len(b); i++ {
		if b[i] == '\\' && i+1 < len(b) {
			i++
			switch b[i] {
			case 't':
				out = append(out, '\t')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			default:
				out = append(out, b[i])
			}
			continue
		}
		out = append(out, b[i])
	}
	return out
}

func (s *tsvScanner) finish() (Answer, error) {
	if len(s.line) > 0 || !s.header {
		return s.ans, errTruncated
	}
	return s.ans, nil
}

func (s *jsonScanner) rows() []uint64 { return s.rowHashes }
func (s *tsvScanner) rows() []uint64  { return s.rowHashes }
