// Package wire reads and writes the service's JSON documents by schema,
// without reflection.
//
// A Scanner reads the plain form of JSON that encoders such as
// encoding/json produce: strings without escape sequences, integers
// without fraction or exponent in integer fields, no duplicate or
// case-folded member names, no null inside arrays. Anything outside
// that form makes the scan fail, and a failed scan is not an error:
// the schema decoder that drove it hands the whole input to
// encoding/json, which accepts, rejects and decodes it as it always
// did. The scanner therefore never has to get an edge case right; it
// only has to recognise when it is off the plain path.
//
// The Append functions write values byte for byte as encoding/json's
// Marshal writes them.
package wire

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"time"
	"unicode/utf8"
)

// Scanner reads one JSON value in the plain form. Its methods record a
// failure instead of returning an error, and return zero values once
// the scan has failed, so a schema decoder reads straight through and
// asks Done at the end.
type Scanner struct {
	data []byte
	off  int
	bad  bool
}

// NewScanner returns a scanner over data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// Fail marks the input as outside the plain form.
func (s *Scanner) Fail() { s.bad = true }

// Done reports whether the scan stayed on the plain path and only
// whitespace follows the value.
func (s *Scanner) Done() bool {
	s.space()
	return !s.bad && s.off == len(s.data)
}

func (s *Scanner) space() {
	for s.off < len(s.data) {
		switch s.data[s.off] {
		case ' ', '\t', '\n', '\r':
			s.off++
		default:
			return
		}
	}
}

// peek returns the next byte after whitespace: 0 at the end of the
// input or once the scan has failed.
func (s *Scanner) peek() byte {
	if s.bad {
		return 0
	}
	s.space()
	if s.off == len(s.data) {
		return 0
	}
	return s.data[s.off]
}

// literal consumes word if it comes next.
func (s *Scanner) literal(word string) bool {
	if s.peek() != word[0] || len(s.data)-s.off < len(word) || string(s.data[s.off:s.off+len(word)]) != word {
		return false
	}
	s.off += len(word)
	return true
}

// Object consumes the '{' that opens an object and reports whether a
// member follows. An empty object is consumed whole.
//
//	for more := s.Object(); more; more = s.More('}') { key := s.Key(); ... }
func (s *Scanner) Object() bool { return s.open('{', '}') }

// Array consumes the '[' that opens an array and reports whether an
// element follows. An empty array is consumed whole.
func (s *Scanner) Array() bool { return s.open('[', ']') }

func (s *Scanner) open(open, close byte) bool {
	if s.peek() != open {
		s.Fail()
		return false
	}
	s.off++
	if s.peek() == close {
		s.off++
		return false
	}
	return !s.bad
}

// More consumes the ',' before the next member or element and returns
// true, or the closing byte of the object or array and returns false.
func (s *Scanner) More(close byte) bool {
	switch s.peek() {
	case ',':
		s.off++
		return true
	case close:
		s.off++
		return false
	}
	s.Fail()
	return false
}

// Key reads a member name and the ':' after it. The bytes alias the
// input and are not checked for valid UTF-8: callers compare them with
// their schema's names and fail on any other.
func (s *Scanner) Key() []byte {
	k, _ := s.plain()
	s.colon()
	return k
}

// MapKey reads a member name that is data, such as a floorplan name in
// a map, and the ':' after it.
func (s *Scanner) MapKey() string {
	k := s.Text()
	s.colon()
	return k
}

func (s *Scanner) colon() {
	if s.peek() != ':' {
		s.Fail()
		return
	}
	s.off++
}

// Field marks member i of an object as seen and reports whether its
// value is non-null; a null value is consumed. A member seen twice
// fails the scan: encoding/json merges a repeated object member into
// the first, which a schema decoder writing into a zero value does not
// mirror. seen holds one bit per member.
func (s *Scanner) Field(seen *uint64, i uint) bool {
	if *seen&(1<<i) != 0 {
		s.Fail()
		return false
	}
	*seen |= 1 << i
	return !s.Null()
}

// Null consumes a null literal and reports whether there was one.
func (s *Scanner) Null() bool { return s.literal("null") }

// plain reads a string without escape sequences or control characters
// and reports whether it holds bytes outside ASCII.
func (s *Scanner) plain() (b []byte, wide bool) {
	if s.peek() != '"' {
		s.Fail()
		return nil, false
	}
	start := s.off + 1
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.off = i + 1
			return s.data[start:i], wide
		case c == '\\' || c < 0x20:
			s.Fail()
			return nil, false
		case c >= utf8.RuneSelf:
			wide = true
		}
	}
	s.Fail()
	return nil, false
}

// Text reads a string value. (Not String: a Scanner is no fmt.Stringer.)
func (s *Scanner) Text() string {
	b, wide := s.plain()
	if wide && !utf8.Valid(b) {
		// encoding/json replaces invalid bytes with U+FFFD.
		s.Fail()
		return ""
	}
	return string(b)
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	if s.literal("true") {
		return true
	}
	if !s.literal("false") {
		s.Fail()
	}
	return false
}

// maxDigits bounds the integers read without an overflow check: 18
// decimal digits always fit an int64.
const maxDigits = 18

// Int64 reads an integer: an optional '-', then digits without a
// leading zero, fraction or exponent, at most 18 of them. Larger
// values fail the scan and reach encoding/json, which range-checks
// them.
func (s *Scanner) Int64() int64 {
	if s.peek() == 0 {
		s.Fail()
		return 0
	}
	i, neg := s.off, false
	if s.data[i] == '-' {
		neg = true
		i++
	}
	start := i
	var v int64
	if i < len(s.data) && s.data[i] == '0' {
		i++
	} else {
		for i < len(s.data) && s.data[i] >= '0' && s.data[i] <= '9' {
			v = v*10 + int64(s.data[i]-'0')
			i++
		}
	}
	if i == start || i-start > maxDigits {
		s.Fail()
		return 0
	}
	if i < len(s.data) {
		switch s.data[i] {
		case '.', 'e', 'E':
			// A number encoding/json refuses for an integer field.
			s.Fail()
			return 0
		}
	}
	s.off = i
	if neg {
		v = -v
	}
	return v
}

// Int reads an integer that fits the platform's int.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.Fail()
		return 0
	}
	return int(v)
}

// Uint64 reads an integer without a sign, as Int64 does: encoding/json
// refuses a negative one, "-0" included, for an unsigned field.
func (s *Scanner) Uint64() uint64 {
	if s.peek() == '-' {
		s.Fail()
		return 0
	}
	return uint64(s.Int64())
}

// Float64 reads a number and converts it as encoding/json does, with
// strconv.ParseFloat; a value out of float64 range fails the scan.
func (s *Scanner) Float64() float64 {
	end := s.number()
	if end < 0 {
		return 0
	}
	f, err := strconv.ParseFloat(string(s.data[s.off:end]), 64)
	if err != nil {
		s.Fail()
		return 0
	}
	s.off = end
	return f
}

// number skips whitespace and returns the index after the JSON number
// that starts at s.off, or fails the scan and returns -1 when none
// does.
func (s *Scanner) number() int {
	if s.peek() == 0 {
		s.Fail()
		return -1
	}
	i := s.off
	if s.data[i] == '-' {
		i++
	}
	if i < len(s.data) && s.data[i] == '0' {
		i++
	} else if i = s.digits(i); i < 0 {
		return -1
	}
	if i < len(s.data) && s.data[i] == '.' {
		if i = s.digits(i + 1); i < 0 {
			return -1
		}
	}
	if i < len(s.data) && (s.data[i] == 'e' || s.data[i] == 'E') {
		i++
		if i < len(s.data) && (s.data[i] == '+' || s.data[i] == '-') {
			i++
		}
		if i = s.digits(i); i < 0 {
			return -1
		}
	}
	return i
}

// digits returns the index after the run of digits starting at i, or
// fails the scan and returns -1 when there is none.
func (s *Scanner) digits(i int) int {
	j := i
	for j < len(s.data) && s.data[j] >= '0' && s.data[j] <= '9' {
		j++
	}
	if j == i {
		s.Fail()
		return -1
	}
	return j
}

// Time reads a string value as time.Time's UnmarshalJSON reads it,
// which is what encoding/json calls for a time.Time field.
func (s *Scanner) Time() (t time.Time) {
	s.peek()
	start := s.off
	if s.plain(); s.bad {
		return t
	}
	if err := t.UnmarshalJSON(s.data[start:s.off]); err != nil {
		s.Fail()
	}
	return t
}

// maxRawDepth bounds the nesting Raw reads. encoding/json refuses
// documents nested past 10000; deeper values fail the scan and reach
// it.
const maxRawDepth = 1000

// Raw reads any JSON value, checking only its syntax, and returns its
// bytes: a sub-slice of the input, as encoding/json copies it into a
// json.RawMessage. Unlike the rest of the scanner it reads strings with
// escape sequences and numbers of any size, since it decodes neither.
func (s *Scanner) Raw() []byte {
	if s.peek() == 0 {
		s.Fail()
		return nil
	}
	start := s.off
	if s.skip(0); s.bad {
		return nil
	}
	return s.data[start:s.off]
}

func (s *Scanner) skip(depth int) {
	if depth > maxRawDepth {
		s.Fail()
		return
	}
	switch s.peek() {
	case '{':
		for more := s.Object(); more; more = s.More('}') {
			s.skipString()
			s.colon()
			s.skip(depth + 1)
		}
	case '[':
		for more := s.Array(); more; more = s.More(']') {
			s.skip(depth + 1)
		}
	case '"':
		s.skipString()
	case 't', 'f':
		s.Bool()
	case 'n':
		if !s.Null() {
			s.Fail()
		}
	default:
		if end := s.number(); end >= 0 {
			s.off = end
		}
	}
}

// skipString reads a string of any bytes but control characters, with
// its escape sequences checked and not decoded. encoding/json keeps
// invalid UTF-8 in a raw value as it is.
func (s *Scanner) skipString() {
	if s.peek() != '"' {
		s.Fail()
		return
	}
	for i := s.off + 1; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.off = i + 1
			return
		case c < 0x20:
			s.Fail()
			return
		case c == '\\':
			if i++; i == len(s.data) {
				s.Fail()
				return
			}
			switch s.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(s.data) || !hex4(s.data[i+1:i+5]) {
					s.Fail()
					return
				}
				i += 4
			default:
				s.Fail()
				return
			}
		}
	}
	s.Fail()
}

func hex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// pair reads a two-element integer array such as an edge or a cell.
func (s *Scanner) pair() (p [2]int) {
	if s.peek() != '[' {
		s.Fail()
		return p
	}
	s.off++
	p[0] = s.Int()
	if s.peek() != ',' {
		s.Fail()
		return p
	}
	s.off++
	p[1] = s.Int()
	if s.peek() != ']' {
		s.Fail()
		return p
	}
	s.off++
	return p
}

// Pairs reads an array of pairs. An empty array is a non-nil empty
// slice, as encoding/json decodes it.
func (s *Scanner) Pairs() [][2]int {
	out := [][2]int{}
	for more := s.Array(); more; more = s.More(']') {
		out = append(out, s.pair())
	}
	return out
}

// AppendString appends str as encoding/json writes a string: quoted,
// with HTML-sensitive and control bytes escaped. Strings that need no
// escape are copied; the rest are written by encoding/json itself.
func AppendString(b []byte, str string) []byte {
	for i := 0; i < len(str); i++ {
		if c := str[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(str) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, str...)
	return append(b, '"')
}

// CheckFloats returns the error encoding/json's Marshal reports for
// the first NaN or infinity among fs, or nil when all are finite.
// AppendFloat takes only finite values.
func CheckFloats(fs ...float64) error {
	for _, f := range fs {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	return nil
}

// AppendFloat appends a finite f as encoding/json writes a float64:
// the shortest decimal that round-trips, in exponent form only below
// 1e-6 or from 1e21 up, with a one-digit exponent not zero-padded.
func AppendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	start := len(b)
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7.
		if n := len(b); n-start >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// AppendTime appends t as encoding/json writes a time.Time, with
// time.Time's MarshalJSON: an RFC 3339 string with nanoseconds. Its
// error is MarshalJSON's, for a year outside [0,9999] or a zone offset
// of a day or more.
func AppendTime(b []byte, t time.Time) ([]byte, error) {
	_, offset := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || offset <= -24*3600 || offset >= 24*3600 {
		_, err := t.MarshalJSON()
		return b, err
	}
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"'), nil
}

// AppendPairs appends an array of pairs; nil is null.
func AppendPairs(b []byte, ps [][2]int) []byte {
	if ps == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(p[0]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p[1]), 10)
		b = append(b, ']')
	}
	return append(b, ']')
}
