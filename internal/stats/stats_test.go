package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.P99() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	for _, x := range []float64{5, 1, 3, 2, 4} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Median() != 3 {
		t.Fatalf("Median = %v", s.Median())
	}
	if s.Sum() != 15 {
		t.Fatalf("Sum = %v", s.Sum())
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Quantile(0.99); got != 99 {
		t.Fatalf("P99 of 1..100 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("P100 = %v", got)
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
	if got := s.Quantile(-0.5); got != 1 {
		t.Fatalf("clamped low quantile = %v", got)
	}
	if got := s.Quantile(1.5); got != 100 {
		t.Fatalf("clamped high quantile = %v", got)
	}
}

func TestAddAfterQuantile(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Median()
	s.Add(1) // must re-sort
	if s.Min() != 1 {
		t.Fatal("sample did not re-sort after Add")
	}
}

func TestTailToAvg(t *testing.T) {
	var s Sample
	for i := 0; i < 99; i++ {
		s.Add(1)
	}
	s.Add(101) // mean 2, p99 = 101 (nearest rank over 100 samples -> idx 98)
	ta := s.TailToAvg()
	if ta <= 0 {
		t.Fatalf("TailToAvg = %v", ta)
	}
	var e Sample
	if e.TailToAvg() != 0 {
		t.Fatal("empty TailToAvg should be 0")
	}
}

func TestFracAtLeastAndCDFAt(t *testing.T) {
	var s Sample
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	if got := s.FracAtLeast(8); got != 0.3 {
		t.Fatalf("FracAtLeast(8) = %v", got)
	}
	if got := s.FracAtLeast(11); got != 0 {
		t.Fatalf("FracAtLeast(11) = %v", got)
	}
	if got := s.CDFAt(5); got != 0.5 {
		t.Fatalf("CDFAt(5) = %v", got)
	}
	if got := s.CDFAt(0); got != 0 {
		t.Fatalf("CDFAt(0) = %v", got)
	}
	if got := s.CDFAt(100); got != 1 {
		t.Fatalf("CDFAt(100) = %v", got)
	}
}

func TestCDFPoints(t *testing.T) {
	var s Sample
	for i := 0; i <= 100; i++ {
		s.Add(float64(i))
	}
	pts := s.CDF(11)
	if len(pts) != 11 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].X != 0 || pts[10].X != 100 {
		t.Fatalf("range = [%v, %v]", pts[0].X, pts[10].X)
	}
	if pts[10].P != 1 {
		t.Fatalf("final P = %v", pts[10].P)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].P < pts[i-1].P {
			t.Fatal("CDF not monotone")
		}
	}
	if s.CDF(0) != nil {
		t.Fatal("CDF(0) should be nil")
	}
}

func TestSummary(t *testing.T) {
	var s Sample
	for i := 1; i <= 4; i++ {
		s.Add(float64(i))
	}
	sum := s.Summarize()
	if sum.N != 4 || sum.Mean != 2.5 || sum.Max != 4 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.String() == "" {
		t.Fatal("empty String")
	}
}

func TestReset(t *testing.T) {
	var s Sample
	s.Add(1)
	s.Reset()
	if s.N() != 0 || s.Sum() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 2) != 5 {
		t.Fatal("Ratio(10,2)")
	}
	if Ratio(10, 0) != 0 {
		t.Fatal("Ratio(10,0)")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); !approx(got, 10, 1e-9) {
		t.Fatalf("GeoMean = %v", got)
	}
	if got := GeoMean([]float64{-1, 0}); got != 0 {
		t.Fatalf("GeoMean of nonpositive = %v", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Fatalf("GeoMean(nil) = %v", got)
	}
}

func TestMeanHelper(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean([1,2,3])")
	}
}

// Property: Quantile matches direct computation on the sorted slice.
func TestQuantileProperty(t *testing.T) {
	f := func(raw []float64, qi uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q := float64(qi%101) / 100
		var s Sample
		for _, x := range xs {
			s.Add(x)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		rank := int(math.Ceil(q*float64(len(sorted)))) - 1
		if rank < 0 {
			rank = 0
		}
		return s.Quantile(q) == sorted[rank]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: CDFAt is a nondecreasing function bounded by [0,1].
func TestCDFMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(r.NormFloat64() * 10)
	}
	prev := -1.0
	for x := -40.0; x <= 40; x += 0.5 {
		p := s.CDFAt(x)
		if p < prev || p < 0 || p > 1 {
			t.Fatalf("CDF violated at %v: %v (prev %v)", x, p, prev)
		}
		prev = p
	}
}

// Property: mean lies within [min, max].
func TestMeanBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				continue
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-6 && s.Mean() <= s.Max()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryJSONStableOrder(t *testing.T) {
	s := Summary{N: 3, Mean: 1.5, Median: 1, P99: 2.25, Max: 2.25}
	got, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"n":3,"mean":1.5,"p50":1,"p99":2.25,"max":2.25}`
	if string(got) != want {
		t.Fatalf("Marshal = %s, want %s", got, want)
	}
	// Round trip.
	var back Summary
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Fatalf("round trip = %+v, want %+v", back, s)
	}
	// Identical summaries serialize byte-identically (the contract umprof,
	// umsim -metrics and umbench share).
	again, _ := json.Marshal(s)
	if string(again) != string(got) {
		t.Fatalf("marshal not stable: %s vs %s", again, got)
	}
}

func TestSummaryJSONEmptyAndSpecial(t *testing.T) {
	got, err := json.Marshal(Summary{})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"n":0,"mean":0,"p50":0,"p99":0,"max":0}`
	if string(got) != want {
		t.Fatalf("empty Marshal = %s, want %s", got, want)
	}
	// NaN/Inf must not produce invalid JSON.
	b, err := json.Marshal(Summary{N: 1, Mean: math.NaN(), P99: math.Inf(1)})
	if err != nil {
		t.Fatalf("NaN/Inf marshal failed: %v", err)
	}
	var back Summary
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("NaN/Inf output not parseable: %v", err)
	}
}

// TestEmptySampleSafe pins the N=0 contract: every summary statistic on an
// empty sample returns a finite zero — never a panic, never a NaN — and the
// JSON encoding of an empty-summary record contains no NaN/Inf tokens (which
// would make the output unparseable).
func TestEmptySampleSafe(t *testing.T) {
	var s Sample
	for name, v := range map[string]float64{
		"Mean":      s.Mean(),
		"Quantile":  s.Quantile(0.5),
		"P99":       s.P99(),
		"Median":    s.Median(),
		"Min":       s.Min(),
		"Max":       s.Max(),
		"TailToAvg": s.TailToAvg(),
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s on empty sample = %v", name, v)
		}
		if v != 0 {
			t.Fatalf("%s on empty sample = %v, want 0", name, v)
		}
	}

	sum := s.Summarize()
	if sum.N != 0 || sum.Mean != 0 || sum.P99 != 0 {
		t.Fatalf("empty Summarize = %+v", sum)
	}
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatalf("marshal empty summary: %v", err)
	}
	for _, bad := range []string{"NaN", "Inf", "null"} {
		if strings.Contains(string(data), bad) {
			t.Fatalf("empty summary JSON contains %q: %s", bad, data)
		}
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("round-trip empty summary: %v", err)
	}
}

// TestSampleJSONKeepsSumAfterSort: the JSON form carries the insertion-order
// sum verbatim. Re-adding the values after a quantile query sorted them
// gives a different sum here, so a decoder that recomputed it would drift.
func TestSampleJSONKeepsSumAfterSort(t *testing.T) {
	var s Sample
	for _, x := range []float64{1e16, 1, -1e16, 1} {
		s.Add(x)
	}
	s.Quantile(0.5) // sorts the values in place
	var resum float64
	for _, x := range s.Values() {
		resum += x
	}
	if math.Float64bits(resum) == math.Float64bits(s.Sum()) {
		t.Fatalf("sorted re-sum %v equals insertion sum %v; the case proves nothing", resum, s.Sum())
	}
	b, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var back Sample
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(back.Sum()) != math.Float64bits(s.Sum()) {
		t.Fatalf("decoded sum %v, want %v bit-exact", back.Sum(), s.Sum())
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("decoded %+v, want %+v", back, s)
	}
	if b2, _ := json.Marshal(&back); string(b2) != string(b) {
		t.Fatalf("re-encode %s, want %s", b2, b)
	}
}

// TestMergeMatchesAppendAndSort compares Merge with the path it replaces —
// append every part's values to one sample in part order, then sort it for
// the summary — on random parts with many ties, some empty, some already
// sorted by a quantile query and some not: the values, the sum (bit for
// bit) and the summary must match.
func TestMergeMatchesAppendAndSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		parts := make([]*Sample, rng.Intn(20))
		for i := range parts {
			parts[i] = &Sample{}
			for range rng.Intn(40) {
				// A few distinct values make ties across and within parts.
				parts[i].Add(float64(rng.Intn(12)) + 0.1*float64(rng.Intn(3)))
			}
			if rng.Intn(3) > 0 {
				parts[i].Median() // sorts the part, as a server's summary does
			}
		}
		want := &Sample{}
		for _, p := range parts {
			for _, v := range p.Values() {
				want.Add(v)
			}
		}
		wantSum := want.Sum()
		wantSummary := want.Summarize()

		got := Merge(parts)
		if math.Float64bits(got.Sum()) != math.Float64bits(wantSum) {
			t.Fatalf("trial %d: sum %v, append path %v", trial, got.Sum(), wantSum)
		}
		if !reflect.DeepEqual(got.Values(), want.Values()) {
			t.Fatalf("trial %d: merged %v, sorted append %v", trial, got.Values(), want.Values())
		}
		if gs := got.Summarize(); gs != wantSummary {
			t.Fatalf("trial %d: summary %+v, append path %+v", trial, gs, wantSummary)
		}
	}
}
