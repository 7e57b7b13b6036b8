package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"

	"securadio"
)

// recordedSeeds is the number of --seed values, from 0, that
// digests.json covers.
const recordedSeeds = 64

// writeDigests computes the reference digests of every checked output
// for the recorded seeds through the one-shot campaign path (the bytes
// `fleetsim run -format json` prints) and writes them to path. It runs
// when the benchmark is defined or its workloads change, never as part
// of a measured run.
func writeDigests(path string) error {
	d := recorded{"fame-fleet": {}, "service-live": {}}
	for s := int64(0); s < recordedSeeds; s++ {
		key := fmt.Sprint(s)
		sum, err := oneShot("fame-worst", fleetRuns, s)
		if err != nil {
			return err
		}
		d["fame-fleet"][key] = []string{sum}
		for j := 0; j < serviceGrid; j++ {
			sum, err := oneShot(serviceScenario, serviceRuns, gridSeed(s, j))
			if err != nil {
				return err
			}
			d["service-live"][key] = append(d["service-live"][key], sum)
		}
		logf("recorded seed %d", s)
	}
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// oneShot runs a campaign through RunCampaign and returns the sha256 of
// its JSON report.
func oneShot(scenario string, runs int, seed int64) (string, error) {
	sc, ok := securadio.LookupScenario(scenario)
	if !ok {
		return "", fmt.Errorf("no built-in scenario %q", scenario)
	}
	agg, err := securadio.RunCampaign(context.Background(), securadio.Campaign{Scenario: sc, Runs: runs, Seed: seed})
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if err := agg.WriteJSON(&buf); err != nil {
		return "", err
	}
	return digest(buf.Bytes()), nil
}
