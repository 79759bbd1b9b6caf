package serve

import (
	"bytes"
	"encoding/json"
)

// DecodeStatus decodes a job status body into st exactly as
// json.Unmarshal(data, st) does, values and errors alike, and like it sets
// only the members the body holds. A body in the form the server writes is
// decoded in one pass that validates the result in place: the known keys,
// spelled as JobStatus encodes them, each at most once; strings of plain
// ASCII without escapes; true or false for cached; result, when present,
// as the last member; JSON white space between tokens. st.Result then
// aliases data instead of copying it. Any other body goes to encoding/json.
func DecodeStatus(data []byte, st *JobStatus) error {
	if decodeStatus(data, st) {
		return nil
	}
	return json.Unmarshal(data, st)
}

// statusKeys are the keys of JobStatus's string members, in the order
// decodeStatus lists the members.
var statusKeys = [...]string{"id", "name", "status", "hash", "submitted_at", "error"}

// decodeStatus is DecodeStatus's one pass. It reports false, leaving st
// untouched, for a body not in the server's form.
func decodeStatus(data []byte, st *JobStatus) bool {
	const cachedBit = 1 << len(statusKeys)
	var (
		vals   [len(statusKeys)]string
		seen   uint // bit k for statusKeys[k], cachedBit for cached
		cached bool
		result []byte
	)
	i := skipSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return false
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] != '}' {
		for {
			end, plain := scanString(data, i)
			if !plain {
				return false
			}
			key := data[i+1 : end-1]
			if i = skipSpace(data, end); i >= len(data) || data[i] != ':' {
				return false
			}
			// The value starts after the white space: a RawMessage
			// holds the value alone.
			i = skipSpace(data, i+1)
			if string(key) == "result" {
				end, ok := validValue(data, i, 1)
				if !ok {
					return false
				}
				result, i = data[i:end:end], skipSpace(data, end)
				break
			}
			k := 0
			for k < len(statusKeys) && statusKeys[k] != string(key) {
				k++
			}
			bit := uint(1) << k
			if k == len(statusKeys) && string(key) != "cached" || seen&bit != 0 {
				return false
			}
			seen |= bit
			switch {
			case bit != cachedBit:
				end, plain := scanString(data, i)
				if !plain {
					return false
				}
				vals[k], i = string(data[i+1:end-1]), end
			case hasLiteral(data, i, "true"):
				cached, i = true, i+len("true")
			case hasLiteral(data, i, "false"):
				i += len("false")
			default:
				return false
			}
			if i = skipSpace(data, i); i >= len(data) || data[i] != ',' {
				break
			}
			i = skipSpace(data, i+1)
		}
	}
	if i >= len(data) || data[i] != '}' || skipSpace(data, i+1) != len(data) {
		return false
	}
	for k, field := range [...]*string{&st.ID, &st.Name, &st.Status, &st.Hash, &st.Submitted, &st.Error} {
		if seen&(1<<k) != 0 {
			*field = vals[k]
		}
	}
	if seen&cachedBit != 0 {
		st.Cached = cached
	}
	if result != nil {
		st.Result = result
	}
	return true
}

// UnmarshalJSON decodes a result payload exactly as encoding/json decodes
// the plain struct, values and errors alike, but parses samples written in
// the form the server writes — {"bits":count,...}, ASCII keys without
// escapes, no whitespace, non-negative integer counts — straight into a map
// presized from its entry count, without reflection. encoding/json decodes
// every other field, from a copy of data with the samples member cut out.
// A whole response body, which the encoder ends with a newline, takes the
// same path when passed directly. Any other input goes to encoding/json
// whole: samples in another form (whitespace, escapes, non-ASCII bytes,
// null, a non-integer, an overflow), samples merging into a non-nil map, a
// second top-level key that could name samples, or an error. A failed fast
// attempt has made only some of the assignments the full decode then
// repeats in the same order, so the full decode ends where it would have
// alone.
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
// data, which must have no white space before it, before its keys or after
// its member values, and returns its samples and the member's bounds
// widened by one adjoining comma. It reports false for any other input:
// samples not in the server's form, another member that is not valid JSON,
// and another top-level key that could name samples, since encoding/json
// unescapes keys and folds their case, Unicode included.
func cutSamples(data []byte) (m map[string]int, cut [2]int, ok bool) {
	data = bytes.TrimRight(data, " \t\r\n")
	if len(data) < 3 || data[0] != '{' || data[len(data)-1] != '}' {
		return nil, cut, false
	}
	for i, next := 1, 0; ; i = next + 1 {
		end, plain := scanString(data, i)
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
			if next, ok = validValue(data, end+1, 1); !ok {
				return nil, cut, false
			}
		}
		if next >= len(data) || (data[next] != ',' && data[next] != '}') {
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

// maxCountDigits keeps a parsed count below 10^18, inside int64; on a
// 32-bit int the conversion check in scanSample rejects larger counts.
const maxCountDigits = 18

// parseSamples parses the samples object opening at data[i] when it is in
// the server's form, and returns the index just past it. The object is
// converted to a string once, and every key of the map is a slice of it.
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
	obj := data[i:end]
	keys := string(obj)
	for j := 1; j < len(obj)-1; {
		keyEnd, count, next, _ := scanSample(obj, j)
		m[keys[j+1:keyEnd]] = count
		j = next
	}
	return m, end, true
}

// scanSample scans the entry `"key":count` at data[i:] and the ',' or '}'
// after it, returning the index of the key's closing quote, the count and
// the index past that byte.
func scanSample(data []byte, i int) (keyEnd, count, next int, ok bool) {
	if i >= len(data) || data[i] != '"' {
		return 0, 0, 0, false
	}
	j := i + 1
	for ; j < len(data) && data[j] != '"'; j++ {
		if c := data[j]; c < 0x20 || c > 0x7e || c == '\\' {
			return 0, 0, 0, false
		}
	}
	if j+1 >= len(data) || data[j+1] != ':' {
		return 0, 0, 0, false
	}
	d := j + 2
	e := d
	var v uint64
	for ; e < len(data) && data[e] >= '0' && data[e] <= '9'; e++ {
		v = v*10 + uint64(data[e]-'0')
	}
	digits := e - d
	if digits == 0 || digits > maxCountDigits || (digits > 1 && data[d] == '0') || uint64(int(v)) != v || int(v) < 0 {
		return 0, 0, 0, false
	}
	if e == len(data) || (data[e] != ',' && data[e] != '}') {
		return 0, 0, 0, false
	}
	return j, int(v), e + 1, true
}

// maxNesting is encoding/json's nesting limit: json.Valid rejects arrays
// and objects nested deeper.
const maxNesting = 10000

// validJSON reports whether data is one JSON value with optional white
// space around it, exactly as json.Valid does.
func validJSON(data []byte) bool {
	end, ok := validValue(data, 0, 0)
	return ok && skipSpace(data, end) == len(data)
}

// validValue validates the JSON value that starts at data[i] after
// optional white space, inside depth enclosing arrays and objects, and
// returns the index just past it. It accepts exactly what json.Valid
// accepts of a value: strings without control bytes and with valid
// escapes (other bytes pass unchecked, invalid UTF-8 included), numbers in
// JSON's grammar, the three literals, and at most maxNesting levels.
func validValue(data []byte, i, depth int) (end int, ok bool) {
	i = skipSpace(data, i)
	if i >= len(data) {
		return i, false
	}
	switch data[i] {
	case '{', '[':
		if depth++; depth > maxNesting {
			return i, false
		}
		closer := byte(']')
		if data[i] == '{' {
			closer = '}'
		}
		if i = skipSpace(data, i+1); i < len(data) && data[i] == closer {
			return i + 1, true
		}
		for {
			if closer == '}' {
				if i, _ = scanString(data, i); i < 0 {
					return i, false
				}
				if i = skipSpace(data, i); i >= len(data) || data[i] != ':' {
					return i, false
				}
				i++
			}
			if i, ok = validValue(data, i, depth); !ok {
				return i, false
			}
			switch i = skipSpace(data, i); {
			case i >= len(data):
				return i, false
			case data[i] == closer:
				return i + 1, true
			case data[i] != ',':
				return i, false
			}
			i = skipSpace(data, i+1)
		}
	case '"':
		end, _ = scanString(data, i)
		return end, end >= 0
	case 't':
		return i + len("true"), hasLiteral(data, i, "true")
	case 'f':
		return i + len("false"), hasLiteral(data, i, "false")
	case 'n':
		return i + len("null"), hasLiteral(data, i, "null")
	}
	return scanNumber(data, i)
}

// skipSpace returns the index of the first byte at or after data[i] that
// is not JSON white space.
func skipSpace(data []byte, i int) int {
	for ; i < len(data); i++ {
		if c := data[i]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			break
		}
	}
	return i
}

// hasLiteral reports whether data[i:] opens with lit.
func hasLiteral(data []byte, i int, lit string) bool {
	return len(data)-i >= len(lit) && string(data[i:i+len(lit)]) == lit
}

// scanString returns the index just past the JSON string opening at
// data[i], or -1 when there is none or it is invalid (a control byte, a
// bad escape, no closing quote), and whether the string is plain: ASCII
// without escapes.
func scanString(data []byte, i int) (end int, plain bool) {
	if i >= len(data) || data[i] != '"' {
		return -1, false
	}
	plain = true
	for j := i + 1; j < len(data); j++ {
		switch c := data[j]; {
		case c == '"':
			return j + 1, plain
		case c < 0x20:
			return -1, false
		case c >= 0x80:
			plain = false
		case c == '\\':
			plain = false
			if j++; j >= len(data) {
				return -1, false
			}
			switch data[j] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if j+4 >= len(data) || !isHex(data[j+1]) || !isHex(data[j+2]) || !isHex(data[j+3]) || !isHex(data[j+4]) {
					return -1, false
				}
				j += 4
			default:
				return -1, false
			}
		}
	}
	return -1, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// scanNumber returns the index just past the JSON number at data[i] and
// whether there is one: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func scanNumber(data []byte, i int) (end int, ok bool) {
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i+1)
	default:
		return i, false
	}
	if i < len(data) && data[i] == '.' {
		if end = skipDigits(data, i+1); end == i+1 {
			return end, false
		}
		i = end
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if end = skipDigits(data, i); end == i {
			return end, false
		}
		i = end
	}
	return i, true
}

func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}
