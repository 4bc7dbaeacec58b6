package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-1, 1}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 2.138, 1e-3) {
		t.Errorf("StdDev = %v, want ~2.138", got)
	}
	if StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("StdDev of <2 samples should be 0")
	}
}

func TestCI95(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 2) // sd ≈ 0.5025
	}
	ci := CI95(xs)
	if !almostEqual(ci, 1.96*StdDev(xs)/10, 1e-12) {
		t.Errorf("CI95 = %v", ci)
	}
	if CI95([]float64{1}) != 0 {
		t.Error("CI95 of 1 sample should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty Min/Max should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {-5, 1}, {105, 5}}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPearsonCorrelation(t *testing.T) {
	perfect, _ := PearsonCorrelation([]float64{1, 2, 3}, []float64{2, 4, 6})
	if !almostEqual(perfect, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", perfect)
	}
	inverse, _ := PearsonCorrelation([]float64{1, 2, 3}, []float64{3, 2, 1})
	if !almostEqual(inverse, -1, 1e-12) {
		t.Errorf("inverse correlation = %v", inverse)
	}
	constant, _ := PearsonCorrelation([]float64{1, 1, 1}, []float64{1, 2, 3})
	if constant != 0 {
		t.Errorf("constant vector correlation = %v, want 0", constant)
	}
	if _, err := PearsonCorrelation([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("dimension mismatch not reported")
	}
	empty, err := PearsonCorrelation(nil, nil)
	if err != nil || empty != 0 {
		t.Errorf("empty correlation = %v, %v", empty, err)
	}
}

func TestPearsonCorrelationBoundsProperty(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 2 {
			return true
		}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true
			}
			ys[i] = x*3 + 1
		}
		rho, err := PearsonCorrelation(xs, ys)
		if err != nil {
			return false
		}
		// Affine positive transform: rho must be 1 (or 0 for constant xs).
		return almostEqual(rho, 1, 1e-6) || rho == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{1, 3})
	if !almostEqual(got[0], 0.25, 1e-12) || !almostEqual(got[1], 0.75, 1e-12) {
		t.Errorf("Normalize = %v", got)
	}
	zero := Normalize([]float64{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("Normalize zero = %v", zero)
	}
	// Must not alias input.
	in := []float64{2, 2}
	out := Normalize(in)
	out[0] = 99
	if in[0] == 99 {
		t.Error("Normalize aliases input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || !almostEqual(s.Mean, 2, 1e-12) || s.Min != 1 || s.Max != 3 {
		t.Errorf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
}
