package indicators

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func sample() []Outcome {
	return []Outcome{
		{Success: true, TTA: 10, Detected: true, TTSF: 8, Horizon: 100,
			Compromised: []Point{{T: 2, Value: 0.2}, {T: 9, Value: 0.6}}},
		{Success: true, TTA: 20, Detected: false, Horizon: 100,
			Compromised: []Point{{T: 5, Value: 0.4}}},
		{Success: false, Detected: true, TTSF: 50, Horizon: 100,
			Compromised: []Point{{T: 30, Value: 0.1}}},
		{Success: false, Detected: false, Horizon: 100},
	}
}

func TestSuccessProbability(t *testing.T) {
	iv, err := SuccessProbability(sample(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Point != 0.5 {
		t.Fatalf("point = %v, want 0.5", iv.Point)
	}
	if iv.Lo > 0.5 || iv.Hi < 0.5 {
		t.Fatalf("interval does not bracket point: %+v", iv)
	}
	if _, err := SuccessProbability(nil, 0.95); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v", err)
	}
}

func TestTTASummary(t *testing.T) {
	s, err := TTASummary(sample())
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 2 || s.Mean != 15 {
		t.Fatalf("summary = %+v", s)
	}
	if _, err := TTASummary([]Outcome{{Success: false}}); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v", err)
	}
}

func TestTTSFSummary(t *testing.T) {
	s, err := TTSFSummary(sample(), false)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 2 || s.Mean != 29 {
		t.Fatalf("detected-only = %+v", s)
	}
	s, err = TTSFSummary(sample(), true)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 4 {
		t.Fatalf("censored count = %+v", s)
	}
	// Censored mean: (8+50+100+100)/4.
	if math.Abs(s.Mean-64.5) > 1e-9 {
		t.Fatalf("censored mean = %v", s.Mean)
	}
	if _, err := TTSFSummary([]Outcome{{Detected: false}}, false); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v", err)
	}
}

func TestDetectionRate(t *testing.T) {
	iv, err := DetectionRate(sample(), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Point != 0.5 {
		t.Fatalf("point = %v", iv.Point)
	}
}

func TestRatioAt(t *testing.T) {
	series := []Point{{T: 2, Value: 0.2}, {T: 9, Value: 0.6}}
	cases := []struct{ t, want float64 }{
		{0, 0}, {1.99, 0}, {2, 0.2}, {5, 0.2}, {9, 0.6}, {100, 0.6},
	}
	for _, c := range cases {
		if got := RatioAt(series, c.t); got != c.want {
			t.Errorf("RatioAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestValidateSeries(t *testing.T) {
	if err := ValidateSeries([]Point{{1, 0.1}, {2, 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := ValidateSeries([]Point{{2, 0.1}, {1, 0.5}}); err == nil {
		t.Fatal("descending times accepted")
	}
	if err := ValidateSeries([]Point{{1, 0.5}, {2, 0.1}}); err == nil {
		t.Fatal("decreasing ratio accepted")
	}
	if err := ValidateSeries([]Point{{1, 1.5}}); err == nil {
		t.Fatal("ratio > 1 accepted")
	}
}

func TestSummarize(t *testing.T) {
	rep, err := Summarize(sample(), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if rep.N != 4 || rep.PSuccess.Point != 0.5 || rep.PDetected.Point != 0.5 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.TTA.Mean != 15 || rep.TTSF.Mean != 29 {
		t.Fatalf("TTA/TTSF = %v/%v", rep.TTA.Mean, rep.TTSF.Mean)
	}
	if math.Abs(rep.FinalRatio-0.275) > 1e-12 {
		t.Fatalf("final ratio = %v", rep.FinalRatio)
	}
	if _, err := Summarize(nil, 0.95); !errors.Is(err, ErrNoData) {
		t.Fatal("empty outcomes accepted")
	}
}

// Property: RatioAt is nondecreasing in t for valid series.
func TestQuickRatioMonotone(t *testing.T) {
	f := func(steps []uint8, t1, t2 float64) bool {
		var series []Point
		tt, v := 0.0, 0.0
		for _, s := range steps {
			tt += float64(s%10) + 0.1
			v = math.Min(1, v+float64(s%5)/20)
			series = append(series, Point{T: tt, Value: v})
		}
		if err := ValidateSeries(series); err != nil {
			return false
		}
		t1 = math.Abs(math.Mod(t1, 100))
		t2 = math.Abs(math.Mod(t2, 100))
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		return RatioAt(series, t1) <= RatioAt(series, t2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// DwellTime: detected → TTSF − first compromise; undetected → censored
// at the horizon; never-compromised → 0 (no intruder to catch).
func TestDwellTime(t *testing.T) {
	s := sample()
	for i, want := range []float64{8 - 2, 100 - 5, 50 - 30, 0} {
		if got := s[i].DwellTime(); got != want {
			t.Errorf("outcome %d: dwell %v, want %v", i, got, want)
		}
	}
}

// Clone must detach the Compromised series from shared storage.
func TestOutcomeClone(t *testing.T) {
	o := sample()[0]
	c := o.Clone()
	c.Compromised[0].Value = 0.99
	if o.Compromised[0].Value == 0.99 {
		t.Fatal("Clone shares the series backing array")
	}
}
