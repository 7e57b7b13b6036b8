package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"securadio"
	"securadio/internal/fleet"
)

// workload is one benchmark input set. open builds an instance for a
// seed and runs its warm-up ops; every pass of an instance then repeats
// the same seed grid, so passes of one run do identical simulated work
// and their median discards the ones a noise burst landed on.
type workload struct {
	name string
	// scenario is the built-in scenario whose shape the workload runs.
	scenario string
	open     func(seed int64, d recorded) (instance, error)
}

type instance interface {
	// pass runs the instance's seed grid once, recording spans into tr
	// when it is non-nil.
	pass(tr *tracer) passResult
	close()
}

// passResult is what one pass did and how long its ops took.
type passResult struct {
	wall       time.Duration
	ops        int
	failed     int
	err        error     // the last gate failure, if any
	nodeRounds int64     // Σ rounds × N over the pass's ops
	rounds     int64     // Σ rounds
	latMS      []float64 // per-op latency
	// fame-fleet: Σ RunResult.Elapsed, the pool's worker count, and the
	// runs that ended in the protocol's detected whp failure.
	busy     time.Duration
	workers  int
	diverged int
	// service-live: SSE events the client read and events it was told
	// were dropped.
	events, dropped int
	digests         []string
}

var workloads = []workload{
	{
		// The fleetsim run path at GOMAXPROCS=nproc: short runs through
		// the fleet pool and the engine's goroutine barrier.
		name:     "fame-fleet",
		scenario: "fame-worst",
		open:     openFleet,
	},
	{
		// A live-dashboard client of the daemon: traced jobs whose round
		// events go through the SSE path.
		name:     "service-live",
		scenario: serviceScenario,
		open:     openService,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// gridSeed is the seed of op j of the grid that --seed selects, where
// ops are independent calls (service-live jobs, the secure probe's
// networks). Grids of distinct --seed values never overlap.
func gridSeed(seed int64, j int) int64 { return seed*1000 + int64(j) }

// --- fame-fleet ------------------------------------------------------------

// fleetRuns is the campaign size of one pass, and fleetWarm the number of
// warm-up runs.
const fleetRuns, fleetWarm = 200, 40

// campaignBench runs one campaign of fame-worst per pass: fleetRuns runs
// with per-run seeds derived from the campaign seed (--seed). An untraced
// pass is a plain RunCampaign, the `fleetsim run` path. A traced pass
// goes through RunCampaignWithHooks, whose OnResult hook is the only
// place each run's Elapsed is visible.
type campaignBench struct {
	camp   fleet.Campaign
	ref    expect
	passes int
}

func openFleet(seed int64, d recorded) (instance, error) {
	sc, ok := securadio.LookupScenario("fame-worst")
	if !ok {
		return nil, errors.New("no built-in scenario fame-worst")
	}
	b := &campaignBench{camp: securadio.Campaign{Scenario: sc, Runs: fleetRuns, Seed: seed}}
	if want := d.lookup("fame-fleet", seed); len(want) == 1 {
		b.ref = expect{want: want[0], recorded: true}
	}
	// Warm-up: the grid's first runs, held to the passes' run gate.
	w := b.camp
	w.Runs = fleetWarm
	agg, err := securadio.RunCampaign(context.Background(), w)
	if err == nil {
		_, _, err = checkRuns(agg, sc.T)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return b, nil
}

func (b *campaignBench) pass(tr *tracer) passResult {
	opBase := b.passes * b.camp.Runs
	b.passes++
	res := passResult{ops: b.camp.Runs, workers: min(b.camp.Runs, gomaxprocs())}
	var agg *fleet.Aggregate
	var err error
	if tr == nil {
		start := time.Now()
		agg, err = securadio.RunCampaign(context.Background(), b.camp)
		res.wall = time.Since(start)
	} else {
		passSpan := tr.begin("fleet.RunCampaign", 0, 0)
		hooks := &securadio.RunHooks{OnResult: func(_ string, r fleet.RunResult, _ *fleet.Aggregate) {
			end := tr.now()
			tr.add("fleet.run", passSpan, opBase+r.Run+1, end-int64(r.Elapsed), end)
			res.busy += r.Elapsed
			res.latMS = append(res.latMS, ms(r.Elapsed))
		}}
		start := time.Now()
		agg, err = securadio.RunCampaignWithHooks(context.Background(), b.camp, hooks)
		res.wall = time.Since(start)
		tr.end(passSpan)
	}

	var blob bytes.Buffer
	if err == nil {
		err = agg.WriteJSON(&blob)
	}
	if err != nil {
		res.failed, res.err = res.ops, err
		return res
	}
	res.digests = []string{digest(blob.Bytes())}
	res.failed, res.diverged, res.err = checkCampaign(blob.Bytes(), &b.ref, agg, b.camp.Scenario.T)
	// Rounds of the runs that completed; a diverged run has no round count
	// in the aggregate.
	res.rounds = int64(agg.Rounds.Mean*float64(agg.Rounds.N) + 0.5)
	res.nodeRounds = res.rounds * int64(b.camp.Scenario.N)
	return res
}

func (b *campaignBench) close() {}

// --- service-live ----------------------------------------------------------

// serviceGrid is the number of jobs in one pass and serviceWarm the
// number of warm-up jobs; each job is a serviceRuns-run campaign of
// serviceScenario.
const (
	serviceGrid     = 20
	serviceWarm     = 10
	serviceScenario = "fame-clear"
	serviceRuns     = 2
)

// serviceBench is a campaign daemon behind a loopback HTTP server and
// the one client that drives it. The client's transport allows a single
// connection, so load comes from exactly one connection.
type serviceBench struct {
	srv    *securadio.CampaignServer
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
	seeds  []int64
	refs   []expect
	n      int // the scenario's node count, for node-rounds
	nextOp int
}

func openService(seed int64, d recorded) (instance, error) {
	sc, ok := securadio.LookupScenario(serviceScenario)
	if !ok {
		return nil, fmt.Errorf("no built-in scenario %q", serviceScenario)
	}
	srv, err := securadio.NewCampaignServer(securadio.ServiceConfig{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &serviceBench{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base:   "http://" + ln.Addr().String(),
		n:      sc.N,
	}
	go func() { b.served <- b.hs.Serve(ln) }()
	want := d.lookup("service-live", seed)
	for j := 0; j < serviceGrid; j++ {
		b.seeds = append(b.seeds, gridSeed(seed, j))
		ref := expect{}
		if len(want) == serviceGrid {
			ref = expect{want: want[j], recorded: true}
		}
		b.refs = append(b.refs, ref)
	}
	// Warm-up: the grid's first jobs, checked like timed ones.
	for j := 0; j < serviceWarm; j++ {
		if _, err := b.job(nil, 0, b.seeds[j], &b.refs[j], &passResult{}); err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return b, nil
}

func (b *serviceBench) pass(tr *tracer) passResult {
	res := passResult{workers: 1}
	start := time.Now()
	for j, seed := range b.seeds {
		b.nextOp++
		t0 := time.Now()
		blob, err := b.job(tr, b.nextOp, seed, &b.refs[j], &res)
		lat := time.Since(t0)
		res.ops++
		res.latMS = append(res.latMS, ms(lat))
		res.busy += lat
		res.digests = append(res.digests, digest(blob))
		if err != nil {
			res.failed++
			res.err = fmt.Errorf("job seed %d: %w", seed, err)
		}
	}
	res.wall = time.Since(start)
	res.nodeRounds = res.rounds * int64(b.n)
	return res
}

// job submits one traced campaign job, follows its event stream to the
// end event and fetches and checks its report. It returns the report.
func (b *serviceBench) job(tr *tracer, op int, seed int64, ref *expect, res *passResult) ([]byte, error) {
	jobSpan := tr.begin("service.job", 0, op)
	defer tr.end(jobSpan)

	id := tr.begin("service.submit", jobSpan, op)
	sub := fmt.Sprintf(`{"trace":true,"campaign":{"scenario":%q,"runs":%d,"seed":%d}}`, serviceScenario, serviceRuns, seed)
	var st securadio.ServiceJobStatus
	err := b.do(http.MethodPost, "/jobs", strings.NewReader(sub), http.StatusAccepted, func(r io.Reader) error {
		return json.NewDecoder(r).Decode(&st)
	})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}

	id = tr.begin("service.stream", jobSpan, op)
	var end securadio.ServiceJobStatus
	err = b.do(http.MethodGet, "/jobs/"+st.ID+"/events", nil, http.StatusOK, func(r io.Reader) error {
		return readEvents(r, &end, res)
	})
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	if end.State != "done" {
		return nil, fmt.Errorf("stream ended in state %q (%s)", end.State, end.Error)
	}
	if tr != nil && end.Started != nil {
		tr.add("service.queue", jobSpan, op, int64(end.Submitted.Sub(tr.t0)), int64(end.Started.Sub(tr.t0)))
	}

	id = tr.begin("service.report", jobSpan, op)
	var blob []byte
	err = b.do(http.MethodGet, "/jobs/"+st.ID+"/report", nil, http.StatusOK, func(r io.Reader) error {
		var err error
		blob, err = io.ReadAll(r)
		return err
	})
	if err == nil {
		err = checkReport(blob, ref, end.ReportSHA)
	}
	if err == nil {
		var rep struct {
			Rounds struct {
				N    int     `json:"n"`
				Mean float64 `json:"mean"`
			} `json:"rounds"`
		}
		if err = json.Unmarshal(blob, &rep); err == nil {
			res.rounds += int64(rep.Rounds.Mean*float64(rep.Rounds.N) + 0.5)
		}
	}
	tr.end(id)
	return blob, err
}

// do makes one request and hands the body to read when the status is
// want. The body is drained and closed so the one connection is reused.
func (b *serviceBench) do(method, path string, body io.Reader, want int, read func(io.Reader) error) error {
	req, err := http.NewRequest(method, b.base+path, body)
	if err != nil {
		return err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	err = read(resp.Body)
	_, _ = io.Copy(io.Discard, resp.Body) // reuse the connection
	return err
}

// readEvents consumes a Server-Sent Events stream up to its end event,
// counting events and the drops the server reported.
func readEvents(r io.Reader, end *securadio.ServiceJobStatus, res *passResult) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var typ string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := []byte(strings.TrimPrefix(line, "data: "))
			res.events++
			switch typ {
			case "dropped":
				var d struct{ Events int }
				if err := json.Unmarshal(data, &d); err != nil {
					return err
				}
				res.dropped += d.Events
			case "end":
				return json.Unmarshal(data, end)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream closed before its end event")
}

func (b *serviceBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The client has finished, so no request or job is in flight and
	// neither call has anything to report.
	_ = b.hs.Shutdown(ctx)
	<-b.served
	_ = b.srv.Drain(ctx)
	b.client.CloseIdleConnections()
}
