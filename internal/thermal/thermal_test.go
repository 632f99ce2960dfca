package thermal

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func uniformPower(w, h int, p float64) [][]float64 {
	out := make([][]float64, h)
	for y := range out {
		out[y] = make([]float64, w)
		for x := range out[y] {
			out[y][x] = p
		}
	}
	return out
}

func TestZeroPowerIsAmbient(t *testing.T) {
	cfg := DefaultConfig()
	tm, err := Solve(uniformPower(6, 6, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tm {
		for _, v := range row {
			if math.Abs(v-cfg.AmbientK) > 1e-4 {
				t.Fatalf("idle fabric at %g K, want ambient %g", v, cfg.AmbientK)
			}
		}
	}
}

func TestUniformPowerUniformTemp(t *testing.T) {
	cfg := DefaultConfig()
	tm, err := Solve(uniformPower(5, 5, 1.0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With uniform power there is no lateral flow: T = Tamb + P*Rv.
	want := cfg.AmbientK + 1.0*cfg.RVertical
	for _, row := range tm {
		for _, v := range row {
			if math.Abs(v-want) > 1e-3 {
				t.Fatalf("uniform fabric at %g K, want %g", v, want)
			}
		}
	}
}

func TestHotspotPeaksAtSource(t *testing.T) {
	cfg := DefaultConfig()
	p := uniformPower(7, 7, 0)
	p[3][3] = 2.0
	tm, err := Solve(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	peak := tm[3][3]
	for y, row := range tm {
		for x, v := range row {
			if v > peak+1e-9 {
				t.Fatalf("temp at (%d,%d)=%g exceeds source %g", x, y, v, peak)
			}
		}
	}
	if peak <= cfg.AmbientK {
		t.Fatalf("hotspot not above ambient")
	}
	// Symmetry: the four orthogonal neighbours of the center are equal.
	if math.Abs(tm[3][2]-tm[3][4]) > 1e-6 || math.Abs(tm[2][3]-tm[4][3]) > 1e-6 ||
		math.Abs(tm[3][2]-tm[2][3]) > 1e-6 {
		t.Fatalf("asymmetric response around a centered source")
	}
}

func TestMonotoneInPower(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		w, h := 4+rng.Intn(4), 4+rng.Intn(4)
		p1 := make([][]float64, h)
		p2 := make([][]float64, h)
		for y := 0; y < h; y++ {
			p1[y] = make([]float64, w)
			p2[y] = make([]float64, w)
			for x := 0; x < w; x++ {
				p1[y][x] = rng.Float64()
				p2[y][x] = p1[y][x] + rng.Float64()*0.5 // p2 >= p1 everywhere
			}
		}
		t1, err1 := Solve(p1, cfg)
		t2, err2 := Solve(p2, cfg)
		if err1 != nil || err2 != nil {
			return false
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if t2[y][x] < t1[y][x]-1e-6 {
					t.Logf("seed %d: non-monotone at (%d,%d)", seed, x, y)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyBalance(t *testing.T) {
	// Total power in == total vertical heat out at steady state.
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(42))
	p := make([][]float64, 6)
	total := 0.0
	for y := range p {
		p[y] = make([]float64, 6)
		for x := range p[y] {
			p[y][x] = rng.Float64() * 2
			total += p[y][x]
		}
	}
	cfg.Tol = 1e-10
	tm, err := Solve(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := 0.0
	for _, row := range tm {
		for _, v := range row {
			out += (v - cfg.AmbientK) / cfg.RVertical
		}
	}
	if math.Abs(out-total) > 1e-4*total {
		t.Fatalf("energy imbalance: in %g, out %g", total, out)
	}
}

// TestSolveBalancesEachPE checks Solve pointwise: at every PE of a
// non-square map with a hot spot, the returned temperatures satisfy the
// balance the solver iterates,
//
//	P = (T - AmbientK)/RVertical + sum_n (T - T_n)/RLateral,
//
// at the default tolerance the flow runs with.
func TestSolveBalancesEachPE(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(7))
	const w, h = 7, 5
	p := make([][]float64, h)
	for y := range p {
		p[y] = make([]float64, w)
		for x := range p[y] {
			p[y][x] = rng.Float64()
		}
	}
	p[1][5] = 3
	tm, err := Solve(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out := (tm[y][x] - cfg.AmbientK) / cfg.RVertical
			for _, n := range [][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
				if n[0] >= 0 && n[0] < w && n[1] >= 0 && n[1] < h {
					out += (tm[y][x] - tm[n[1]][n[0]]) / cfg.RLateral
				}
			}
			if r := math.Abs(out - p[y][x]); r > 1e-6 {
				t.Fatalf("(%d,%d): power %g W, heat out %g W (residual %g)", x, y, p[y][x], out, r)
			}
		}
	}
}

func TestSolveValidation(t *testing.T) {
	cfg := DefaultConfig()
	if _, err := Solve(nil, cfg); err == nil {
		t.Fatal("empty map accepted")
	}
	if _, err := Solve([][]float64{{1, 2}, {3}}, cfg); err == nil {
		t.Fatal("ragged map accepted")
	}
	if _, err := Solve([][]float64{{-1}}, cfg); err == nil {
		t.Fatal("negative power accepted")
	}
	bad := cfg
	bad.RVertical = 0
	if _, err := Solve(uniformPower(2, 2, 1), bad); err == nil {
		t.Fatal("zero resistance accepted")
	}
	bad2 := cfg
	bad2.Omega = 2.5
	if _, err := Solve(uniformPower(2, 2, 1), bad2); err == nil {
		t.Fatal("invalid omega accepted")
	}
}

func TestPowerFromStress(t *testing.T) {
	cfg := DefaultConfig()
	stress := [][]float64{{0, 4}, {2, 0}}
	p := PowerFromStress(stress, 4, cfg)
	if math.Abs(p[0][0]-cfg.LeakageW) > 1e-12 {
		t.Fatalf("idle PE power %g, want leakage %g", p[0][0], cfg.LeakageW)
	}
	want := cfg.LeakageW + cfg.PowerPerStress*1.0 // 4 stress / 4 contexts
	if math.Abs(p[0][1]-want) > 1e-12 {
		t.Fatalf("power %g, want %g", p[0][1], want)
	}
}

func TestMaxK(t *testing.T) {
	if MaxK([][]float64{{1, 5}, {3, 2}}) != 5 {
		t.Fatal("MaxK wrong")
	}
}

func TestCalibratedSpread(t *testing.T) {
	// DESIGN.md: a fully-stressed PE should sit roughly 5-20 K above an
	// idle one under the default calibration, keeping the temperature
	// contribution to MTTF in the paper's plausible range.
	cfg := DefaultConfig()
	p := uniformPower(8, 8, 0)
	for y := range p {
		for x := range p[y] {
			p[y][x] = cfg.LeakageW
		}
	}
	p[0][0] += cfg.PowerPerStress * 0.8 // one PE at ~max realistic duty
	tm, err := Solve(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	spread := tm[0][0] - tm[7][7]
	if spread < 1 || spread > 25 {
		t.Fatalf("single-PE spread %g K outside calibrated band [1,25]", spread)
	}
	// A packed 4x4 stressed corner — the aging-unaware floorplan's shape
	// — must heat collectively into the HotSpot-like 5-20 K range.
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			p[y][x] = cfg.LeakageW + cfg.PowerPerStress*0.8
		}
	}
	tm2, err := Solve(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	corner := tm2[0][0] - tm2[7][7]
	if corner < 3 || corner > 30 {
		t.Fatalf("packed-corner spread %g K outside [3,30]", corner)
	}
}
