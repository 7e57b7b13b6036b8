package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"securadio"
	"securadio/internal/core"
	"securadio/internal/fleet"
	"securadio/internal/graph"
	"securadio/internal/radio"
	"securadio/internal/wcrypto"
)

// The probes time one layer's public entry point in isolation. They run
// only in traced runs, after the workload's own windows, so they never
// share a window with the end-to-end numbers.

// probeRadio times radio.Run with trivial node programs (even nodes
// transmit, odd nodes listen, on random channels) at the given shape and
// returns the median nanoseconds per node-round over reps runs.
func probeRadio(tr *tracer, n, c, t int) (float64, error) {
	const nodeRounds, reps = 1 << 17, 9
	rounds := max(nodeRounds/n, 16)
	var per []float64
	for i := 0; i < reps; i++ {
		procs := make([]radio.Process, n)
		for j := range procs {
			j := j
			procs[j] = func(e radio.Env) {
				for r := 0; r < rounds; r++ {
					if j%2 == 0 {
						e.Transmit(e.Rand().Intn(e.C()), j)
					} else {
						e.Listen(e.Rand().Intn(e.C()))
					}
				}
			}
		}
		cfg := radio.Config{N: n, C: c, T: t, Seed: int64(i), MaxRounds: rounds + 1}
		id := tr.begin("radio.Run", 0, 0)
		start := time.Now()
		if _, err := radio.Run(cfg, procs); err != nil {
			return 0, fmt.Errorf("radio probe: %w", err)
		}
		per = append(per, float64(time.Since(start))/float64(n*rounds))
		tr.end(id)
	}
	return median(per), nil
}

// probeExchange times core.Exchange serially on the first runs of the
// fame-fleet grid for seed, rebuilding each run's inputs exactly as the
// fleet does, and returns the median milliseconds. Every exchange must
// keep its disruption cover within t.
func probeExchange(tr *tracer, seed int64) (float64, error) {
	const reps = 20
	sc, _ := securadio.LookupScenario("fame-worst")
	camp := fleet.Campaign{Scenario: sc, Seed: seed}
	span := sc.Span
	if span == 0 {
		span = fleet.PairSpan(sc.N)
	}
	var lat []float64
	for run := 0; run < reps; run++ {
		s := camp.SeedFor(run)
		pairs := graph.RandomPairs(span, sc.Pairs, rand.New(rand.NewSource(s)).Intn)
		values := make(map[graph.Edge]radio.Message, len(pairs))
		for _, e := range pairs {
			values[e] = fmt.Sprintf("m/%v", e)
		}
		adv, err := fleet.NewAdversary(sc.Adversary, sc.T, sc.C, s+1)
		if err != nil {
			return 0, err
		}
		p := core.Params{N: sc.N, C: sc.C, T: sc.T, Regime: sc.Regime}
		id := tr.begin("core.Exchange", 0, run+1)
		start := time.Now()
		out, err := core.Exchange(p, pairs, values, adv, s)
		lat = append(lat, ms(time.Since(start)))
		tr.end(id)
		if errors.Is(err, core.ErrDiverged) {
			continue // the whp failure the fleet gate also accepts
		}
		if err != nil {
			return 0, fmt.Errorf("exchange probe: %w", err)
		}
		if out.CoverSize > sc.T {
			return 0, fmt.Errorf("exchange probe: seed %d: cover %d > t = %d", s, out.CoverSize, sc.T)
		}
	}
	return median(lat), nil
}

// probeDH times one Diffie-Hellman key generation plus one shared-key
// derivation on the default group and returns the median microseconds.
func probeDH(tr *tracer, seed int64) (float64, error) {
	const reps = 200
	rng := rand.New(rand.NewSource(seed))
	peer := wcrypto.GenerateDH(wcrypto.DefaultGroup, rng)
	var lat []float64
	for i := 0; i < reps; i++ {
		id := tr.begin("wcrypto.DH", 0, i+1)
		start := time.Now()
		kp := wcrypto.GenerateDH(wcrypto.DefaultGroup, rng)
		_, err := kp.SharedKey(peer.Public, 0, 1)
		lat = append(lat, float64(time.Since(start))/float64(time.Microsecond))
		tr.end(id)
		if err != nil {
			return 0, fmt.Errorf("dh probe: %w", err)
		}
	}
	return median(lat), nil
}

// secureLayers holds the key-setup and channel layer figures.
type secureLayers struct {
	groupKeyMS, channelMS   float64
	setupRounds, keyHolders float64
}

// probeSecure calls Runner.GroupKey and Runner.SecureGroup at
// GOMAXPROCS=1, where the engine runs node programs on its pump, on
// networks seeded 1000·seed + j. The channel's cost is each network's
// SecureGroup time minus its GroupKey time. One unmeasured SecureGroup
// call warms up first.
func probeSecure(tr *tracer, seed int64) (secureLayers, error) {
	const reps = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sc, ok := securadio.LookupScenario("securegroup-hop")
	if !ok {
		return secureLayers{}, errors.New("no built-in scenario securegroup-hop")
	}
	b := secureNet{sc}
	if _, err := b.call(context.Background(), gridSeed(seed, reps)); err != nil {
		return secureLayers{}, fmt.Errorf("secure group probe warm-up: %w", err)
	}
	var gk, ch []float64
	var out secureLayers
	for j := 0; j < reps; j++ {
		r, err := b.runner(gridSeed(seed, j))
		if err != nil {
			return out, err
		}
		id := tr.begin("runner.GroupKey", 0, j+1)
		start := time.Now()
		gkRep, err := r.GroupKey(context.Background())
		g := ms(time.Since(start))
		tr.end(id)
		if err != nil {
			return out, fmt.Errorf("group key probe: %w", err)
		}
		if gkRep.Agreed < b.sc.N-b.sc.T {
			return out, fmt.Errorf("group key probe: %d agreed, want at least n-t", gkRep.Agreed)
		}
		id = tr.begin("runner.SecureGroup", 0, j+1)
		start = time.Now()
		rep, err := b.call(context.Background(), gridSeed(seed, j))
		s := ms(time.Since(start))
		tr.end(id)
		if err != nil {
			return out, fmt.Errorf("secure group probe: %w", err)
		}
		gk = append(gk, g)
		ch = append(ch, s-g)
		out.setupRounds += float64(rep.SetupRounds) / reps
		out.keyHolders += float64(rep.KeyHolders) / reps
	}
	out.groupKeyMS, out.channelMS = median(gk), median(ch)
	return out, nil
}

// secureNet builds Runners of the securegroup-hop shape (N=20, C=2,
// t=1, hop jammer, 4 emulated rounds). Each call gets a fresh Runner:
// the stock adversaries are stateful, so a Runner is not reused.
type secureNet struct{ sc fleet.Scenario }

func (b secureNet) runner(seed int64) (*securadio.Runner, error) {
	net := securadio.Network{N: b.sc.N, C: b.sc.C, T: b.sc.T, Seed: seed}
	return securadio.NewRunner(net, securadio.WithAdversary(b.sc.Adversary))
}

// call runs the full stack once with a rotating-broadcaster app and
// gates the outcome: at least n-t key holders, and exactly the expected
// authenticated deliveries.
func (b secureNet) call(ctx context.Context, seed int64) (*securadio.SecureGroupReport, error) {
	r, err := b.runner(seed)
	if err != nil {
		return nil, err
	}
	app := newBroadcastApp(b.sc.N, b.sc.EmRounds)
	rep, err := r.SecureGroup(ctx, app.run)
	if err != nil {
		return rep, err
	}
	return rep, app.check(rep, b.sc.T)
}

// broadcastApp is the probe's application: in emulated round e,
// node e mod n broadcasts and every node counts the authentic copies it
// receives. Each node writes only its own slots.
type broadcastApp struct {
	n, em  int
	hasKey []bool
	got    []int
}

func newBroadcastApp(n, em int) *broadcastApp {
	return &broadcastApp{n: n, em: em, hasKey: make([]bool, n), got: make([]int, n)}
}

func body(e int) string { return fmt.Sprintf("perfbench/%d", e) }

func (a *broadcastApp) run(s securadio.Session) {
	i := s.ID()
	a.hasKey[i] = s.HasKey()
	for e := 0; e < a.em; e++ {
		var msg []byte
		if i == e%a.n {
			msg = []byte(body(e))
		}
		for _, d := range s.Step(msg) {
			if d.Sender == e%a.n && string(d.Body) == body(e) {
				a.got[i]++
			}
		}
	}
}

// expected is the delivery count a lossless channel gives: every
// emulated round whose broadcaster holds the key reaches the other
// holders.
func (a *broadcastApp) expected() (holders, want int) {
	for _, k := range a.hasKey {
		if k {
			holders++
		}
	}
	for e := 0; e < a.em; e++ {
		if a.hasKey[e%a.n] {
			want += holders - 1
		}
	}
	return holders, want
}

func (a *broadcastApp) check(rep *securadio.SecureGroupReport, t int) error {
	if rep.KeyHolders < a.n-t {
		return fmt.Errorf("%d key holders, want at least n-t = %d", rep.KeyHolders, a.n-t)
	}
	_, want := a.expected()
	got := 0
	for _, g := range a.got {
		got += g
	}
	if got != want {
		return fmt.Errorf("%d authentic deliveries, want %d", got, want)
	}
	return nil
}
