package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"securadio/internal/core"
	"securadio/internal/fleet"
)

// digests.json holds the sha256 of every deterministic output the
// benchmark checks, per workload and --seed. It is written by -record
// when the benchmark is defined, never during a measured run.
//
//go:embed digests.json
var digestsJSON []byte

// recorded maps workload → --seed → the digests of one pass over that
// seed's grid, in grid order (one campaign for the fleet workloads, one
// report per job for service-live).
type recorded map[string]map[string][]string

func loadDigests() (recorded, error) {
	var d recorded
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// lookup returns the recorded digests for a workload and seed, or nil.
func (d recorded) lookup(workload string, seed int64) []string {
	return d[workload][fmt.Sprint(seed)]
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// expect is one op's reference digest: the recorded one when the seed
// was recorded, otherwise the digest the first pass produced, so that
// later passes must at least reproduce it.
type expect struct {
	want     string
	recorded bool
}

// check compares got against the reference, adopting got as the
// reference when there is none yet.
func (e *expect) check(got string) error {
	if e.want == "" {
		e.want = got
		return nil
	}
	if got != e.want {
		src := "first pass"
		if e.recorded {
			src = "recorded"
		}
		return fmt.Errorf("digest %.16s, want %.16s (%s)", got, e.want, src)
	}
	return nil
}

// diverged reports whether a run's error is the feedback layer's
// detected whp failure. f-AME's guarantees hold with high probability,
// and fame-worst's omniscient jammer reaches this failure in about one
// run in 4,300 (3 of the 12,800 runs of the recorded seeds); the campaign
// JSON records it, so the digest pins it.
func diverged(runErr string) bool {
	return strings.Contains(runErr, core.ErrDiverged.Error())
}

// checkRuns is the fleet workload's run gate, applied to warm-up and
// timed campaigns alike: every requested run must have executed without
// a panic and either completed or diverged (see above), and every
// completed run's disruption cover must be at most t (Theorem 6). It
// returns the number of failed and of diverged runs.
func checkRuns(agg *fleet.Aggregate, t int) (failed, div int, err error) {
	if missing := agg.Requested - agg.Runs; missing > 0 {
		failed += missing
		err = fmt.Errorf("%d of %d runs missing", missing, agg.Requested)
	}
	for msg, n := range agg.Errors {
		if diverged(msg) {
			div += n
			continue
		}
		failed += n
		err = fmt.Errorf("%d runs: %s", n, msg)
	}
	// A panicked run's error is among the errors above; whatever its
	// message, a panic is never an accepted outcome.
	if agg.Panics > 0 {
		failed = max(failed, agg.Panics)
		err = fmt.Errorf("%d runs panicked", agg.Panics)
	}
	for cover, n := range agg.CoverHist {
		if cover > t {
			failed += n
			err = fmt.Errorf("%d runs: disruption cover %d > t = %d", n, cover, t)
		}
	}
	return failed, div, err
}

// checkCampaign is the fleet workload's gate on one timed campaign: its
// JSON must match the reference digest, and its runs must pass checkRuns.
// A digest mismatch fails every run of the campaign.
func checkCampaign(blob []byte, ref *expect, agg *fleet.Aggregate, t int) (failed, div int, err error) {
	if err := ref.check(digest(blob)); err != nil {
		return agg.Requested, 0, fmt.Errorf("campaign JSON: %w", err)
	}
	return checkRuns(agg, t)
}

// checkReport is service-live's report gate: the bytes the daemon
// serves must hash to the one-shot campaign's digest and to the
// content address the job's end event announced.
func checkReport(blob []byte, ref *expect, announced string) error {
	got := digest(blob)
	if announced != got {
		return fmt.Errorf("report hashes to %.16s, end event announced %.16s", got, announced)
	}
	if err := ref.check(got); err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return nil
}
