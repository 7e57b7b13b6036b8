package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"securadio"
	"securadio/internal/core"
	"securadio/internal/fleet"
)

// TestMetricNames checks every name and unit the benchmark reports
// against the character sets BENCHMARK.json allows, and the declared
// lists against BENCHMARK.json itself.
func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, code [][2]string, declared []struct{ Name, Unit string }) {
		if len(code) != len(declared) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(code), len(declared))
			return
		}
		for i, d := range code {
			if !nameRE.MatchString(d[0]) || !unitRE.MatchString(d[1]) {
				t.Errorf("%s: bad metric name or unit %q %q", kind, d[0], d[1])
			}
			if declared[i].Name != d[0] || declared[i].Unit != d[1] {
				t.Errorf("%s[%d]: code has %v, BENCHMARK.json has %s %s", kind, i, d, declared[i].Name, declared[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bench.EndToEnd)
	same("per_layer", perLayer, bench.PerLayer)
	for _, w := range bench.Workloads {
		if _, ok := lookupWorkload(w.Name); !ok || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q is not runnable", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("%d workloads in code, %d in BENCHMARK.json", len(workloads), len(bench.Workloads))
	}
}

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{19, 0.5, 10, false}, // 9 samples above 10
		{20, 0.5, 10, true},
		{199, 0.95, 190, false},
		{200, 0.95, 190, true},
		{999, 0.99, 990, false},
		{1000, 0.99, 990, true},
		{0, 0.5, 0, false},
	} {
		got, ok := percentile(samples(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(%d samples, %g) = %g, %v; want %g, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestCampaignGate(t *testing.T) {
	blob := []byte(`{"scenario":"fame-worst","runs":2}`)
	agg := func(runs int, covers map[int]int, errs map[string]int, panics int) *fleet.Aggregate {
		return &fleet.Aggregate{Requested: 2, Runs: runs, CoverHist: covers, Errors: errs, Panics: panics}
	}
	clean := agg(2, map[int]int{0: 1, 1: 1}, nil, 0)

	ref := expect{want: digest(blob), recorded: true}
	if failed, _, err := checkCampaign(blob, &ref, clean, 1); failed != 0 || err != nil {
		t.Fatalf("clean campaign: failed %d, %v", failed, err)
	}

	flipped := append([]byte(nil), blob...)
	flipped[5] ^= 1
	if failed, _, err := checkCampaign(flipped, &ref, clean, 1); failed != 2 || err == nil {
		t.Errorf("flipped byte: failed %d, %v; want every run failed", failed, err)
	}

	over := agg(2, map[int]int{2: 1, 0: 1}, nil, 0)
	if failed, _, err := checkCampaign(blob, &ref, over, 1); failed != 1 || err == nil {
		t.Errorf("cover > t: failed %d, %v; want one failed run", failed, err)
	}

	whp := agg(2, map[int]int{0: 1}, map[string]int{"core: node 3: " + core.ErrDiverged.Error() + ": empty referee response": 1}, 0)
	if failed, div, err := checkCampaign(blob, &ref, whp, 1); failed != 0 || div != 1 || err != nil {
		t.Errorf("diverged run: failed %d, diverged %d, %v; want it accepted and counted", failed, div, err)
	}

	broken := agg(1, nil, map[string]int{"boom": 1}, 0)
	if failed, _, err := checkCampaign(blob, &ref, broken, 1); failed != 2 || err == nil {
		t.Errorf("errored and missing run: failed %d, %v; want 2", failed, err)
	}

	panicked := agg(2, map[int]int{0: 1}, map[string]int{"panic: " + core.ErrDiverged.Error(): 1}, 1)
	if failed, _, err := checkCampaign(blob, &ref, panicked, 1); failed != 1 || err == nil {
		t.Errorf("panicked run: failed %d, %v; want 1", failed, err)
	}

	// An unrecorded seed adopts the first pass's digest and holds later
	// passes to it.
	var first expect
	if _, _, err := checkCampaign(blob, &first, clean, 1); err != nil {
		t.Fatal(err)
	}
	if failed, _, _ := checkCampaign(flipped, &first, clean, 1); failed != 2 {
		t.Errorf("unrecorded seed: a changed second pass failed %d runs, want 2", failed)
	}
}

// divergedWarmSeed is a --seed whose fame-fleet warm-up runs include one
// that ends in the feedback layer's detected whp failure; it is the
// lowest such seed above the recorded ones.
const divergedWarmSeed = 221

// TestFleetWarmUpAcceptsDivergedRun checks that set-up holds the warm-up
// runs to the same rule as the timed passes, which accept such a run.
func TestFleetWarmUpAcceptsDivergedRun(t *testing.T) {
	sc, _ := securadio.LookupScenario("fame-worst")
	agg, err := securadio.RunCampaign(context.Background(), securadio.Campaign{Scenario: sc, Runs: fleetWarm, Seed: divergedWarmSeed})
	if err != nil {
		t.Fatal(err)
	}
	if _, div, _ := checkRuns(agg, sc.T); div != 1 {
		t.Fatalf("seed %d: %d diverged warm-up runs, want 1", divergedWarmSeed, div)
	}
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := openFleet(divergedWarmSeed, d); err != nil {
		t.Fatalf("set-up of seed %d: %v", divergedWarmSeed, err)
	}
}

func TestReportGate(t *testing.T) {
	blob := []byte(`{"scenario":"fame-clear"}`)
	ref := expect{want: digest(blob), recorded: true}
	if err := checkReport(blob, &ref, digest(blob)); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)-2] ^= 1
	if checkReport(flipped, &ref, digest(blob)) == nil {
		t.Error("flipped byte under the announced address passed")
	}
	if checkReport(flipped, &ref, digest(flipped)) == nil {
		t.Error("flipped byte the server also announced passed the recorded digest")
	}
}

func TestSecureGate(t *testing.T) {
	app := newBroadcastApp(4, 4)
	app.hasKey = []bool{true, true, false, true}
	if holders, want := app.expected(); holders != 3 || want != 3*2 {
		t.Fatalf("expected() = %d, %d; want 3 holders, 6 deliveries", holders, want)
	}
	app.got = []int{2, 2, 0, 2}
	if err := app.check(&securadio.SecureGroupReport{KeyHolders: 3}, 1); err != nil {
		t.Fatal(err)
	}
	if app.check(&securadio.SecureGroupReport{KeyHolders: 2}, 1) == nil {
		t.Error("fewer than n-t key holders passed")
	}
	app.got[3] = 1
	if app.check(&securadio.SecureGroupReport{KeyHolders: 3}, 1) == nil {
		t.Error("a missing delivery passed")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps its sibling
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
	}
	selfTimes(spans)
	if spans[0].Self != 100-50-10 || spans[1].Self != 30 {
		t.Errorf("self times %d, %d; want 40, 30", spans[0].Self, spans[1].Self)
	}
}

func TestDigestsCoverEveryGrid(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fame-fleet", "service-live"} {
		if len(d[name]) != recordedSeeds {
			t.Errorf("%s: %d seeds recorded, want %d", name, len(d[name]), recordedSeeds)
		}
		for seed, sums := range d[name] {
			want := 1
			if name == "service-live" {
				want = serviceGrid
			}
			if len(sums) != want {
				t.Errorf("%s seed %s: %d digests, want %d", name, seed, len(sums), want)
			}
		}
	}
}
