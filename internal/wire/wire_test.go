package wire

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestAppendMatchesEncodingJSON: floats at every format boundary and
// random bit patterns, and strings that need each kind of escape, are
// written byte for byte as json.Marshal writes them.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.12, 5, 1.0 / 3, 1e-6, 9.999999e-7, 1e-7, 1.5e-300,
		1e20, 1e21, 1.2345e21, -1e21, 5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	rng := rand.New(rand.NewSource(1))
	for len(floats) < 2000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat([]byte("x"), f); string(got[1:]) != string(want) {
			t.Fatalf("%v: wrote %s, encoding/json %s", f, got[1:], want)
		}
	}
	for _, str := range []string{"", "baseline", "a b/c", `q"uote`, `back\slash`, "<&>", "tab\tnl\n", "\x00\x1f\x7f",
		"é ü", "  ", "\xff\xfe", "日本"} {
		want, err := json.Marshal(str)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, str); string(got) != string(want) {
			t.Fatalf("%q: wrote %s, encoding/json %s", str, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		if got := CheckFloats(1, f); got == nil || got.Error() != want.Error() {
			t.Fatalf("%v: CheckFloats %v, encoding/json %v", f, got, want)
		}
	}
	if err := CheckFloats(0, 1e308); err != nil {
		t.Fatalf("finite floats refused: %v", err)
	}
}

// TestScannerPlainPath: the plain form reads through; each departure
// from it fails the scan instead of being decoded.
func TestScannerPlainPath(t *testing.T) {
	s := NewScanner([]byte(" {\"a\" : [ [1 , -2] ,[0,3]], \"b\":\"x y\", \"c\":true, \"d\":-0.5e1, \"e\":null} \n"))
	var got struct {
		a [][2]int
		b string
		c bool
		d float64
		e bool
	}
	for more := s.Object(); more; more = s.More('}') {
		switch string(s.Key()) {
		case "a":
			got.a = s.Pairs()
		case "b":
			got.b = s.Text()
		case "c":
			got.c = s.Bool()
		case "d":
			got.d = s.Float64()
		case "e":
			got.e = s.Null()
		default:
			s.Fail()
		}
	}
	if !s.Done() || len(got.a) != 2 || got.a[0] != [2]int{1, -2} || got.a[1] != [2]int{0, 3} ||
		got.b != "x y" || !got.c || got.d != -5 || !got.e {
		t.Fatalf("plain input: done %v, read %+v", s.Done(), got)
	}
	for _, in := range []string{`"a\"b"`, `"\xff"`, "\"\x01\"", `1.0`, `1e2`, `01`, `-`, `1234567890123456789`,
		`[1]`, `[1,2,3]`, `{"a":1,}`, `1 2`, `[`, `nul`} {
		s := NewScanner([]byte(in))
		switch in[0] {
		case '"':
			s.Text()
		case '[':
			s.pair()
		case '{':
			for more := s.Object(); more; more = s.More('}') {
				s.Key()
				s.Int()
			}
		case 'n':
			s.Null()
		default:
			s.Int()
		}
		if s.Done() {
			t.Errorf("%s: scan stayed on the plain path", in)
		}
	}
}
