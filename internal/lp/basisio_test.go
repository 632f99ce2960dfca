package lp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func TestBasisMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		p := randomProblem(rng)
		sol, err := Solve(context.Background(), p, Options{})
		if err != nil || sol.Status != Optimal {
			continue
		}
		blob, err := sol.Basis.MarshalBinary()
		if err != nil {
			t.Fatalf("trial %d: marshal: %v", trial, err)
		}
		back, err := UnmarshalBasis(blob)
		if err != nil {
			t.Fatalf("trial %d: unmarshal: %v", trial, err)
		}
		// The decoded snapshot must warm-start the same problem to the
		// same optimum with zero or near-zero extra pivots, exactly
		// like the in-memory snapshot would.
		warm, err := Solve(context.Background(), p, Options{WarmStart: back})
		if err != nil {
			t.Fatalf("trial %d: warm re-solve: %v", trial, err)
		}
		if warm.Status != Optimal {
			t.Fatalf("trial %d: warm status %v", trial, warm.Status)
		}
		if math.Abs(warm.Obj-sol.Obj) > 1e-7*(1+math.Abs(sol.Obj)) {
			t.Fatalf("trial %d: warm obj %g vs cold %g", trial, warm.Obj, sol.Obj)
		}
		if !warm.Warm {
			t.Fatalf("trial %d: decoded basis rejected", trial)
		}
	}
}

func TestUnmarshalBasisRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":        nil,
		"short":        {'L', 'P', 'B', '1', 0},
		"bad-magic":    append([]byte("XXXX"), make([]byte, 20)...),
		"length-drift": append([]byte("LPB1"), make([]byte, 9)...),
	}
	for label, blob := range cases {
		if _, err := UnmarshalBasis(blob); err == nil {
			t.Fatalf("%s: expected decode error", label)
		}
	}
}

// TestCorruptStatusFallsBackCold is the regression for a warm start
// whose status byte is none of the known statuses: it used to park the
// variable at 0 whatever its bounds and return Optimal X=[0] for
// x in [1,2], minimize x. The decoder must refuse such a blob, and an
// in-memory basis carrying the status must be rejected as stale_basis
// so the solve runs cold.
func TestCorruptStatusFallsBackCold(t *testing.T) {
	p := NewProblem()
	x := p.AddVar(1, 1, 2)
	p.MustAddRow(LE, 5, []int{x}, []float64{1})
	cold, err := Solve(context.Background(), p, Options{})
	if err != nil || cold.Status != Optimal || cold.X[0] != 1 {
		t.Fatalf("cold solve: %v %+v", err, cold)
	}
	blob, err := cold.Basis.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	blob[12+4*1+x] = 7 // header, one basis row, then x's status byte
	if _, err := UnmarshalBasis(blob); err == nil {
		t.Fatal("decoder accepted status byte 7")
	}

	bad := &Basis{
		nStruct: cold.Basis.nStruct,
		m:       cold.Basis.m,
		basis:   append([]int32(nil), cold.Basis.basis...),
		vstat:   append([]int8(nil), cold.Basis.vstat...),
	}
	bad.vstat[x] = 7
	if reason := newWarmSolver(new(solver), p, Options{}, bad); reason != rejectStaleBasis {
		t.Fatalf("reject reason %q, want %q", reason, rejectStaleBasis)
	}
	warm, err := Solve(context.Background(), p, Options{WarmStart: bad})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Warm || warm.Status != Optimal || warm.X[0] != 1 {
		t.Fatalf("warm solve with corrupt status: status %v X %v warm %v, want cold X=[1]",
			warm.Status, warm.X, warm.Warm)
	}
}

// fuzzLP is the fixed small LP FuzzUnmarshalBasis offers decoded bases
// to: all three row senses, a free variable and a one-sided bound, so
// every status has a meaning somewhere.
func fuzzLP() *Problem {
	p := NewProblem()
	a := p.AddVar(-1, 0, 4)
	b := p.AddVar(2, math.Inf(-1), Inf)
	c := p.AddVar(-3, 1, Inf)
	p.MustAddRow(LE, 10, []int{a, b, c}, []float64{1, 1, 2})
	p.MustAddRow(GE, -2, []int{a, b}, []float64{1, -1})
	p.MustAddRow(EQ, 3, []int{b, c}, []float64{1, 1})
	return p
}

// FuzzUnmarshalBasis checks that decoding never panics, that every blob
// the decoder accepts re-encodes to the same bytes, and that any decoded
// basis offered as a warm start to fuzzLP gives the cold solve's status
// and objective with X inside its bounds.
func FuzzUnmarshalBasis(f *testing.F) {
	p := fuzzLP()
	cold, err := Solve(context.Background(), p, Options{})
	if err != nil || cold.Status != Optimal {
		f.Fatalf("cold solve: %v %v", err, cold.Status)
	}
	good, err := cold.Basis.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for i := 12; i < len(good); i++ {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0x03
		f.Add(mut)
	}
	f.Add([]byte("LPB1"))
	f.Add(append([]byte("LPB1"), make([]byte, 8)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalBasis(data)
		if err != nil {
			return
		}
		again, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encode of a decoded basis: %v", err)
		}
		if string(again) != string(data) {
			t.Fatalf("round trip changed the blob:\n in %x\nout %x", data, again)
		}
		sol, err := Solve(context.Background(), p, Options{WarmStart: b})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != cold.Status || math.Abs(sol.Obj-cold.Obj) > 1e-7*(1+math.Abs(cold.Obj)) {
			t.Fatalf("warm %v obj %g (warm=%v), cold %v obj %g", sol.Status, sol.Obj, sol.Warm, cold.Status, cold.Obj)
		}
		for j, v := range sol.X {
			lb, ub := p.Bounds(j)
			if v < lb-feasTol || v > ub+feasTol {
				t.Fatalf("x%d = %g outside [%g, %g] (warm=%v)", j, v, lb, ub, sol.Warm)
			}
		}
	})
}
