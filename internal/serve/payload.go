package serve

import (
	"bytes"
	"encoding/json"
)

// UnmarshalJSON decodes a result payload exactly as encoding/json decodes
// the plain struct, values and errors alike, but parses samples written in
// the form the server writes — {"bits":count,...}, ASCII keys without
// escapes, no whitespace, non-negative integer counts — straight into a map
// presized from its entry count, without reflection. encoding/json decodes
// every other field, from a copy of data with the samples member cut out.
// Any other input goes to encoding/json whole: samples in another form
// (whitespace, escapes, non-ASCII bytes, null, a non-integer, an overflow),
// samples merging into a non-nil map, a second top-level key that could
// name samples, or an error. A failed fast attempt has made only some of
// the assignments the full decode then repeats in the same order, so the
// full decode ends where it would have alone.
func (p *ResultPayload) UnmarshalJSON(data []byte) error {
	type payload = ResultPayload
	// Named like the payload so that encoding/json's errors read as they
	// would without this method.
	type ResultPayload payload
	if p.Samples == nil {
		if m, cut, ok := cutSamples(data); ok {
			rest := make([]byte, 0, len(data)-(cut[1]-cut[0]))
			rest = append(append(rest, data[:cut[0]]...), data[cut[1]:]...)
			if json.Unmarshal(rest, (*ResultPayload)(p)) == nil {
				p.Samples = m
				return nil
			}
		}
	}
	return json.Unmarshal(data, (*ResultPayload)(p))
}

// cutSamples parses the one top-level "samples" member of the object in
// data, which must have no whitespace outside its member values, and
// returns its samples and the member's bounds widened by one adjoining
// comma. It reports false for any other input: samples not in the server's
// form, and another top-level key that could name samples, since
// encoding/json unescapes keys and folds their case, Unicode included.
func cutSamples(data []byte) (m map[string]int, cut [2]int, ok bool) {
	if len(data) < 3 || data[0] != '{' || data[len(data)-1] != '}' {
		return nil, cut, false
	}
	for i, next := 1, 0; ; i = next + 1 {
		end, plain := skipString(data, i)
		if !plain || end >= len(data) || data[end] != ':' {
			return nil, cut, false
		}
		key := data[i+1 : end-1]
		switch {
		case string(key) == "samples" && m == nil:
			if m, next, ok = parseSamples(data, end+1); !ok {
				return nil, cut, false
			}
			cut = [2]int{i, next}
		case bytes.EqualFold(key, []byte("samples")):
			return nil, cut, false
		default:
			next = skipValue(data, end+1)
		}
		if next < 0 || next >= len(data) || (data[next] != ',' && data[next] != '}') {
			return nil, cut, false
		}
		if data[next] == '}' {
			if next != len(data)-1 {
				return nil, cut, false
			}
			break
		}
	}
	switch {
	case m == nil:
		return nil, cut, false
	case data[cut[1]] == ',':
		cut[1]++
	case data[cut[0]-1] == ',':
		cut[0]--
	}
	return m, cut, true
}

// skipString returns the index just past the JSON string opening at
// data[i], or -1, and whether the string is plain: ASCII without escapes.
func skipString(data []byte, i int) (end int, plain bool) {
	if i >= len(data) || data[i] != '"' {
		return -1, false
	}
	plain = true
	for j := i + 1; j < len(data); j++ {
		switch c := data[j]; {
		case c == '"':
			return j + 1, plain
		case c == '\\':
			plain = false
			j++
		case c >= 0x80:
			plain = false
		}
	}
	return -1, false
}

// skipValue returns the index of the ',' or closing bracket that ends the
// value starting at data[i], or -1. It matches strings and counts bracket
// depth but does not validate the value: the cut-down copy of the payload
// that holds it goes through encoding/json.
func skipValue(data []byte, i int) int {
	depth := 0
	for j := i; j < len(data); j++ {
		switch data[j] {
		case '"':
			end, _ := skipString(data, j)
			if end < 0 {
				return -1
			}
			j = end - 1
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 {
				return j
			}
			depth--
		case ',':
			if depth == 0 {
				return j
			}
		}
	}
	return -1
}

// maxCountDigits keeps a parsed count below 10^18, inside int64; on a
// 32-bit int the conversion check in scanSample rejects larger counts.
const maxCountDigits = 18

// parseSamples parses the samples object opening at data[i] when it is in
// the server's form, and returns the index just past it.
func parseSamples(data []byte, i int) (m map[string]int, end int, ok bool) {
	if i+1 >= len(data) || data[i] != '{' {
		return nil, 0, false
	}
	entries := 0
	end = i + 1
	if data[end] == '}' {
		end++
	} else {
		for {
			_, _, next, ok := scanSample(data, end)
			if !ok {
				return nil, 0, false
			}
			entries++
			end = next
			if data[next-1] == '}' {
				break
			}
		}
	}
	m = make(map[string]int, entries)
	for j := i + 1; j < end-1; {
		key, count, next, _ := scanSample(data, j)
		m[string(key)] = count
		j = next
	}
	return m, end, true
}

// scanSample scans the entry `"key":count` at data[i:] and the ',' or '}'
// after it, returning the key, the count and the index past that byte.
func scanSample(data []byte, i int) (key []byte, count, next int, ok bool) {
	if i >= len(data) || data[i] != '"' {
		return nil, 0, 0, false
	}
	j := i + 1
	for ; j < len(data) && data[j] != '"'; j++ {
		if c := data[j]; c < 0x20 || c > 0x7e || c == '\\' {
			return nil, 0, 0, false
		}
	}
	if j+1 >= len(data) || data[j+1] != ':' {
		return nil, 0, 0, false
	}
	key = data[i+1 : j]
	d := j + 2
	e := d
	var v uint64
	for ; e < len(data) && data[e] >= '0' && data[e] <= '9'; e++ {
		v = v*10 + uint64(data[e]-'0')
	}
	digits := e - d
	if digits == 0 || digits > maxCountDigits || (digits > 1 && data[d] == '0') || uint64(int(v)) != v || int(v) < 0 {
		return nil, 0, 0, false
	}
	if e == len(data) || (data[e] != ',' && data[e] != '}') {
		return nil, 0, 0, false
	}
	return key, int(v), e + 1, true
}
