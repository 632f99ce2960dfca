package nbti

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultModelCalibration(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The calibration point: 50% duty at 330 K fails at 5 years.
	got := m.MTTFHours(0.5, 330)
	want := 5.0 * 365 * 24
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("calibration MTTF %g h, want %g h", got, want)
	}
	// At the failure time, the shift is exactly FailFrac.
	shift := m.VthShiftFrac(0.5, 330, got)
	if math.Abs(shift-m.FailFrac) > 1e-12 {
		t.Fatalf("shift at MTTF %g, want %g", shift, m.FailFrac)
	}
}

func TestMTTFScalesInverselyWithStress(t *testing.T) {
	m := DefaultModel()
	// t = const / SR: halving stress rate doubles MTTF exactly.
	a := m.MTTFHours(0.6, 340)
	b := m.MTTFHours(0.3, 340)
	if math.Abs(b/a-2) > 1e-9 {
		t.Fatalf("MTTF ratio %g, want 2", b/a)
	}
}

func TestMTTFDecreasesWithTemperature(t *testing.T) {
	m := DefaultModel()
	cold := m.MTTFHours(0.5, 320)
	hot := m.MTTFHours(0.5, 340)
	if hot >= cold {
		t.Fatalf("hotter PE lives longer: %g vs %g", hot, cold)
	}
	// The Arrhenius sensitivity is amplified by 1/n = 4: check the exact
	// closed form.
	k := BoltzmannEV
	wantRatio := math.Exp(m.EaEV / k * (1/320.0 - 1/340.0) / m.N)
	if math.Abs(cold/hot-wantRatio)/wantRatio > 1e-9 {
		t.Fatalf("temperature ratio %g, want %g", cold/hot, wantRatio)
	}
}

// More activity and more heat never extend a PE's life.
func TestMTTFMonotone(t *testing.T) {
	m := DefaultModel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sr := 0.05 + rng.Float64()*0.9
		temp := 310 + rng.Float64()*40
		dsr := rng.Float64() * (0.99 - sr)
		dt := rng.Float64() * 20
		base := m.MTTFHours(sr, temp)
		return m.MTTFHours(sr+dsr, temp) <= base+1e-6 &&
			m.MTTFHours(sr, temp+dt) <= base+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestUnstressedPELivesForever(t *testing.T) {
	m := DefaultModel()
	if !math.IsInf(m.MTTFHours(0, 340), 1) {
		t.Fatal("unstressed PE has finite MTTF")
	}
	if m.VthShiftFrac(0, 340, 1e6) != 0 {
		t.Fatal("unstressed PE accumulates shift")
	}
}

func TestVthShiftMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := DefaultModel()
		sr := 0.05 + rng.Float64()*0.9
		temp := 310 + rng.Float64()*40
		t1 := 100 + rng.Float64()*1e5
		t2 := t1 * (1 + rng.Float64())
		s1 := m.VthShiftFrac(sr, temp, t1)
		s2 := m.VthShiftFrac(sr, temp, t2)
		return s2 >= s1 && s1 > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestShiftMTTFRoundTrip(t *testing.T) {
	// For any (sr, T): VthShiftFrac(sr, T, MTTFHours(sr, T)) == FailFrac.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := DefaultModel()
		sr := 0.05 + rng.Float64()*0.9
		temp := 310 + rng.Float64()*40
		mttf := m.MTTFHours(sr, temp)
		shift := m.VthShiftFrac(sr, temp, mttf)
		return math.Abs(shift-m.FailFrac) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFabricMTTFPicksWorstPE(t *testing.T) {
	m := DefaultModel()
	stress := [][]float64{{0.4, 2.0}, {0.8, 0.1}}
	temp := [][]float64{{330, 330}, {330, 330}}
	hours, x, y, err := m.FabricMTTF(stress, temp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if x != 1 || y != 0 {
		t.Fatalf("limiting PE (%d,%d), want (1,0)", x, y)
	}
	want := m.MTTFHours(2.0/4, 330)
	if math.Abs(hours-want) > 1e-6 {
		t.Fatalf("MTTF %g, want %g", hours, want)
	}
}

func TestFabricMTTFTemperatureTieBreak(t *testing.T) {
	// Equal stress everywhere: the hottest PE fails first.
	m := DefaultModel()
	stress := [][]float64{{1, 1}, {1, 1}}
	temp := [][]float64{{330, 345}, {332, 331}}
	_, x, y, err := m.FabricMTTF(stress, temp, 2)
	if err != nil {
		t.Fatal(err)
	}
	if x != 1 || y != 0 {
		t.Fatalf("limiting PE (%d,%d), want hottest (1,0)", x, y)
	}
}

func TestFabricMTTFValidation(t *testing.T) {
	m := DefaultModel()
	if _, _, _, err := m.FabricMTTF(nil, nil, 1); err == nil {
		t.Fatal("empty maps accepted")
	}
	if _, _, _, err := m.FabricMTTF([][]float64{{1}}, [][]float64{{330}}, 0); err == nil {
		t.Fatal("zero contexts accepted")
	}
	if _, _, _, err := m.FabricMTTF([][]float64{{1, 2}}, [][]float64{{330}}, 1); err == nil {
		t.Fatal("ragged maps accepted")
	}
}

func TestTrajectoryMatchesPointwise(t *testing.T) {
	m := DefaultModel()
	hours := []float64{100, 1000, 10000}
	tr := m.Trajectory(0.5, 335, hours)
	for i, h := range hours {
		if tr[i] != m.VthShiftFrac(0.5, 335, h) {
			t.Fatalf("trajectory[%d] mismatch", i)
		}
	}
}

func TestModelValidate(t *testing.T) {
	bad := []Model{
		{A: 0, N: 0.25, EaEV: 0.5, Vth0: 0.4, FailFrac: 0.1},
		{A: 1, N: 0, EaEV: 0.5, Vth0: 0.4, FailFrac: 0.1},
		{A: 1, N: 1.5, EaEV: 0.5, Vth0: 0.4, FailFrac: 0.1},
		{A: 1, N: 0.25, EaEV: -1, Vth0: 0.4, FailFrac: 0.1},
		{A: 1, N: 0.25, EaEV: 0.5, Vth0: 0.4, FailFrac: 1.5},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
}

// TestStressLevelingPayoff demonstrates the paper's Fig. 2(b) mechanism
// end to end at the model level: halving the worst accumulated stress
// (and cooling the hotspot slightly) multiplies MTTF by more than 2.
func TestStressLevelingPayoff(t *testing.T) {
	m := DefaultModel()
	before := m.MTTFHours(4.0/8, 334) // stacked stress, warm hotspot
	after := m.MTTFHours(2.0/8, 331)  // leveled, slightly cooler
	ratio := after / before
	if ratio < 2 {
		t.Fatalf("leveling payoff %g, want > 2x", ratio)
	}
}
