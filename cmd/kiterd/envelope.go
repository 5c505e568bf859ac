package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"unicode"
	"unicode/utf8"

	"kiter/internal/sdf3x"
)

// analyzeBody is the single decode target of an /analyze body. One
// json.Unmarshal fills both readings of the body: the bare graph's fields
// (the embedded JSONGraph) and the envelope's "graph". The envelope knobs
// are not decoded here: a bare body ignores them whatever their type, and
// an envelope decodes them during the strictness walk (decodeKnobs).
type analyzeBody struct {
	sdf3x.JSONGraph
	// Graph tells the three cases apart after the one Unmarshal when it is
	// pre-pointed at a nil *JSONGraph: *Graph stays nil when the key is
	// absent (a bare body), encoding/json sets Graph itself to nil for
	// "graph": null, and any other value allocates *Graph (an object
	// decodes into it, anything else records a type error).
	Graph **sdf3x.JSONGraph `json:"graph"`
}

// analyzeEnvelope holds the optional request knobs of an /analyze
// envelope, the wrapper told from a bare graph body by its "graph" key.
type analyzeEnvelope struct {
	Analyses   []string `json:"analyses"`
	Method     string   `json:"method"`
	Capacities *bool    `json:"capacities"`
	NoCache    bool     `json:"noCache"`
}

// decodeKnobs walks the top-level members of an envelope body that
// json.Unmarshal has already validated, with the strictness of a
// DisallowUnknownFields decode into {graph, analyses, method, capacities,
// noCache}: keys match case-insensitively as encoding/json matches them,
// an unknown key is an error naming it, each knob occurrence decodes into
// env in document order, and the first error wins. It returns the last
// "graph" value and how many times the key appeared (a repeated key's last
// value wins whole, as the RawMessage it used to be decoded into).
//
// Only escaped keys and knob values allocate; the graph value is skipped
// byte by byte.
func (env *analyzeEnvelope) decodeKnobs(body []byte) (graph []byte, graphs int, err error) {
	i := skipSpace(body, 0) + 1 // past '{'
	for {
		i = skipSpace(body, i)
		if body[i] == '}' {
			return graph, graphs, nil
		}
		if body[i] == ',' {
			i = skipSpace(body, i+1)
		}
		kStart, kEnd := i, skipString(body, i)
		key := body[kStart+1 : kEnd-1]
		if bytes.IndexByte(key, '\\') >= 0 {
			var s string
			if err := json.Unmarshal(body[kStart:kEnd], &s); err != nil {
				return nil, 0, err
			}
			key = []byte(s)
		}
		i = skipSpace(body, skipSpace(body, kEnd)+1) // past ':'
		vEnd := skipValue(body, i)
		val := body[i:vEnd]
		i = vEnd
		var target any
		switch {
		case foldEq(key, "graph"):
			graph = val
			graphs++
			continue
		case foldEq(key, "analyses"):
			target = &env.Analyses
		case foldEq(key, "method"):
			target = &env.Method
		case foldEq(key, "capacities"):
			target = &env.Capacities
		case foldEq(key, "noCache"):
			target = &env.NoCache
		default:
			return nil, 0, fmt.Errorf("json: unknown field %q", key)
		}
		if err := json.Unmarshal(val, target); err != nil {
			return nil, 0, fmt.Errorf("field %q: %w", key, err)
		}
	}
}

// foldEq reports whether an unescaped object key selects the struct field
// named name under encoding/json's case-insensitive match: ASCII letters
// fold to upper case and every other rune r to ToUpper(ToLower(r)), so
// "METHOD", and even "analyſes" with a long s, select their fields.
func foldEq(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		r := rune(key[i])
		if r < utf8.RuneSelf {
			i++
		} else {
			var n int
			r, n = utf8.DecodeRune(key[i:])
			r = unicode.ToUpper(unicode.ToLower(r))
			i += n
		}
		if j >= len(name) || upperASCII(r) != upperASCII(rune(name[j])) {
			return false
		}
	}
	return j == len(name)
}

func upperASCII(r rune) rune {
	if 'a' <= r && r <= 'z' {
		return r - ('a' - 'A')
	}
	return r
}

// The skip helpers below step over one token of input already known to be
// valid JSON, so they check nothing; each returns the index just past what
// it skipped.

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// skipString skips the string starting at the quote b[i].
func skipString(b []byte, i int) int {
	for i++; ; i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
}

// skipValue skips the value starting at b[i]: a string, a container (by
// bracket depth, stepping over strings whole) or a literal.
func skipValue(b []byte, i int) int {
	switch b[i] {
	case '"':
		return skipString(b, i)
	case '{', '[':
		depth := 0
		for ; ; i++ {
			switch b[i] {
			case '"':
				i = skipString(b, i) - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
	}
	for i < len(b) {
		switch b[i] {
		case ',', '}', ']', ' ', '\n', '\r', '\t':
			return i
		}
		i++
	}
	return i
}
