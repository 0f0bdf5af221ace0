package wire

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Flat lines — every Request, and every Response but a stats reply — are
// written and read by hand here, without reflection. The encoder writes
// json.Marshal's bytes exactly: keys in struct order, zero fields omitted,
// strings escaped as encoding/json escapes them (HTML-safe). The parser
// accepts only that canonical form and hands anything else to
// encoding/json, so no wire byte differs from the reflective codec and any
// JSON client still works.

// pendingCap bounds the delivery lines a connection holds behind a write
// in progress: a delivery that finds this many bytes waiting behind one is
// shed, so a subscriber that stops reading holds at most this much, beside
// the write it stalls. Lines waiting with no write in progress, such as a
// wire publish's before its sweep, are not shed.
const pendingCap = 1 << 20

// appendRequestLine appends r as one protocol line.
func appendRequestLine(dst []byte, r *Request) []byte {
	dst = append(dst, `{"op":`...)
	dst = appendString(dst, r.Op)
	dst = appendInt(dst, `,"broker":`, int64(r.Broker))
	dst = appendInt(dst, `,"local":`, int64(r.Local))
	dst = appendField(dst, `,"expr":`, r.Expr)
	dst = appendField(dst, `,"event":`, r.Event)
	dst = appendField(dst, `,"attr":`, r.Attr)
	dst = appendField(dst, `,"attrtype":`, r.AttrType)
	return append(dst, "}\n"...)
}

// flat reports whether r is a flat line: one the hand codec handles.
func (r *Response) flat() bool {
	return len(r.Stats) == 0
}

// appendResponseLine appends r as one protocol line: by hand when r is
// flat, through encoding/json otherwise. On error dst is returned as given.
func appendResponseLine(dst []byte, r *Response) ([]byte, error) {
	if !r.flat() {
		b, err := json.Marshal(r)
		if err != nil {
			return dst, err
		}
		return append(append(dst, b...), '\n'), nil
	}
	dst = append(dst, `{"type":`...)
	dst = appendString(dst, r.Type)
	dst = appendField(dst, `,"op":`, r.Op)
	dst = appendField(dst, `,"error":`, r.Error)
	dst = appendInt(dst, `,"broker":`, int64(r.Broker))
	dst = appendInt(dst, `,"local":`, int64(r.Local))
	dst = appendField(dst, `,"event":`, r.Event)
	dst = appendInt(dst, `,"hops":`, int64(r.Hops))
	return append(dst, "}\n"...), nil
}

// appendDeliveryLine appends the delivery Response{Type: "delivery",
// Broker, Local, Event} whose event text is already a JSON string.
func appendDeliveryLine(dst []byte, broker int, local uint32, event []byte) []byte {
	dst = append(dst, `{"type":"delivery"`...)
	dst = appendInt(dst, `,"broker":`, int64(broker))
	dst = appendInt(dst, `,"local":`, int64(local))
	dst = append(dst, `,"event":`...)
	dst = append(dst, event...)
	return append(dst, "}\n"...)
}

// appendField appends key and s unless s is empty (omitempty).
func appendField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(append(dst, key...), s)
}

// appendInt appends key and n unless n is zero (omitempty).
func appendInt(dst []byte, key string, n int64) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), n, 10)
}

const hex = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json writes unescaped.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as a JSON string, escaped as json.Marshal escapes
// it: \" \\ \b \f \n \r \t, \u00XX for other control bytes and for < > &,
// \u2028 and \u2029, and \ufffd for each byte of invalid UTF-8.
func appendString[T string | []byte](dst []byte, s T) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && n == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// parseRequest decodes one request line.
func parseRequest(line []byte, req *Request) error {
	if parseFlatRequest(line, req) {
		return nil
	}
	*req = Request{}
	return json.Unmarshal(line, req)
}

// parseResponse decodes one server line.
func parseResponse(line []byte, resp *Response) error {
	if parseFlatResponse(line, resp) {
		return nil
	}
	*resp = Response{}
	return json.Unmarshal(line, resp)
}

// parseFlatRequest decodes line into req if it is in canonical form.
func parseFlatRequest(line []byte, req *Request) bool {
	p := flatLine{b: line}
	if !p.key(`{"op":`) {
		return false
	}
	req.Op = p.quoted()
	req.Broker = int(p.int(`,"broker":`))
	req.Local = p.uint32(`,"local":`)
	req.Expr = p.str(`,"expr":`)
	req.Event = p.str(`,"event":`)
	req.Attr = p.str(`,"attr":`)
	req.AttrType = p.str(`,"attrtype":`)
	return p.end()
}

// parseFlatResponse decodes line into resp if it is a flat line in
// canonical form.
func parseFlatResponse(line []byte, resp *Response) bool {
	p := flatLine{b: line}
	if !p.key(`{"type":`) {
		return false
	}
	resp.Type = p.quoted()
	resp.Op = p.str(`,"op":`)
	resp.Error = p.str(`,"error":`)
	resp.Broker = int(p.int(`,"broker":`))
	resp.Local = p.uint32(`,"local":`)
	resp.Event = p.str(`,"event":`)
	resp.Hops = int(p.int(`,"hops":`))
	return p.end()
}

// flatLine reads a line in the canonical form appendRequestLine and
// appendResponseLine write. Any departure from it sets bad, after which
// every read returns the zero value and end reports false.
type flatLine struct {
	b   []byte
	bad bool
}

// key consumes k if the line continues with it.
func (p *flatLine) key(k string) bool {
	if p.bad || len(p.b) < len(k) || string(p.b[:len(k)]) != k {
		return false
	}
	p.b = p.b[len(k):]
	return true
}

// end consumes the closing brace and reports whether the whole line was
// canonical.
func (p *flatLine) end() bool { return p.key("}") && len(p.b) == 0 }

// str reads the omitempty string field k: absent is "", present must not
// be empty.
func (p *flatLine) str(k string) string {
	if !p.key(k) {
		return ""
	}
	s := p.quoted()
	if s == "" {
		p.bad = true
	}
	return s
}

// int reads the omitempty int field k: absent is 0; present is a non-zero
// int with no plus sign and no leading zero.
func (p *flatLine) int(k string) int64 {
	if !p.key(k) {
		return 0
	}
	b := p.b
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || b[0] < '1' || b[0] > '9' {
		p.bad = true
		return 0
	}
	var u uint64
	i := 0
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if u > math.MaxInt64/10 { // u*10+9 cannot wrap; too large for int anyway
			p.bad = true
			return 0
		}
		u = u*10 + uint64(b[i]-'0')
	}
	p.b = b[i:]
	switch {
	case neg && u-1 <= math.MaxInt:
		return -int64(u-1) - 1
	case !neg && u <= math.MaxInt:
		return int64(u)
	}
	p.bad = true
	return 0
}

// uint32 reads the omitempty uint32 field k.
func (p *flatLine) uint32(k string) uint32 {
	v := p.int(k)
	if v < 0 || v > math.MaxUint32 {
		p.bad = true
		return 0
	}
	return uint32(v)
}

// quoted reads a JSON string written by appendString.
func (p *flatLine) quoted() string {
	b := p.b
	if p.bad || len(b) == 0 || b[0] != '"' {
		p.bad = true
		return ""
	}
	escaped := false
	i := 1
	for i < len(b) && b[i] != '"' {
		switch c := b[i]; {
		case c == '\\':
			_, n := canonicalEscape(b[i:])
			if n == 0 {
				p.bad = true
				return ""
			}
			escaped = true
			i += n
		case c < utf8.RuneSelf:
			if !htmlSafe[c] {
				p.bad = true
				return ""
			}
			i++
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 || r == '\u2028' || r == '\u2029' {
				p.bad = true
				return ""
			}
			i += n
		}
	}
	if i == len(b) {
		p.bad = true // unterminated
		return ""
	}
	p.b = b[i+1:]
	if !escaped {
		return string(b[1:i])
	}
	// Every escape is longer than what it stands for.
	var sb strings.Builder
	sb.Grow(i - 1)
	for j := 1; j < i; {
		k := bytes.IndexByte(b[j:i], '\\')
		if k < 0 {
			sb.Write(b[j:i])
			break
		}
		sb.Write(b[j : j+k])
		r, n := canonicalEscape(b[j+k:])
		sb.WriteRune(r)
		j += k + n
	}
	return sb.String()
}

// canonicalEscape decodes the escape at the start of b if appendString
// would have written it, returning the rune and the escape's length; n is
// 0 for any other escape.
func canonicalEscape(b []byte) (r rune, n int) {
	if len(b) < 2 {
		return 0, 0
	}
	switch b[1] {
	case '"', '\\':
		return rune(b[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
		if len(b) < 6 {
			return 0, 0
		}
		for _, c := range b[2:6] {
			d := indexHex(c)
			if d < 0 {
				return 0, 0
			}
			r = r<<4 | rune(d)
		}
		switch {
		case r < ' ' && r != '\b' && r != '\f' && r != '\n' && r != '\r' && r != '\t',
			r == '<', r == '>', r == '&', r == '\u2028', r == '\u2029':
			return r, 6
		}
	}
	return 0, 0
}

// indexHex returns c's value as a lower-case hex digit, or -1.
func indexHex(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	}
	return -1
}
