// Package service is the campaign-server layer of fleetsim: a
// long-running daemon that accepts campaign and sweep jobs over HTTP,
// feeds them through the fleet worker pool, streams per-run progress to
// any number of concurrent subscribers, and stores completed reports
// content-addressed so clients can fetch, diff and analyze them later.
//
// The layering mirrors the CLI exactly: a job's stored report is the
// very bytes `fleetsim run -format json` (or `fleetsim sweep -format
// json`) would have printed for the same scenario, runs and seed —
// byte-identical, because both paths end in the same deterministic
// WriteJSON. The daemon adds scheduling (a multi-tenant FIFO queue with
// bounded concurrency), observability (Server-Sent Events with
// per-subscriber ring buffers, so a slow consumer drops its own events
// and never backpressures the simulation), and persistence (a sha256
// content-addressed report store).
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"securadio/internal/fleet"
	"securadio/internal/radio"
)

// Submission and lookup errors the HTTP layer maps to status codes.
var (
	// ErrDraining rejects submissions while the server shuts down.
	ErrDraining = errors.New("service: draining, not accepting jobs")

	// ErrQueueFull rejects a submission when the tenant's pending queue
	// is at its limit.
	ErrQueueFull = errors.New("service: tenant queue full")

	// ErrNoJob reports an unknown job ID.
	ErrNoJob = errors.New("service: no such job")

	// ErrTerminal rejects cancelling a job that already ended.
	ErrTerminal = errors.New("service: job already in a terminal state")
)

// Config parameterizes a Server. The zero value is a working
// single-lane, memory-only server.
type Config struct {
	// MaxConcurrent bounds the number of jobs executing simultaneously;
	// non-positive selects 1. Each job still fans its runs across its own
	// worker pool, so one lane already saturates the machine — more lanes
	// trade per-job latency for cross-tenant interleaving.
	MaxConcurrent int

	// QueueLimit bounds each tenant's pending queue; non-positive
	// selects 64. A full queue rejects new submissions (HTTP 429) instead
	// of growing without bound.
	QueueLimit int

	// Workers bounds each job's simulation worker pool; non-positive
	// selects GOMAXPROCS, exactly like the CLI's -workers.
	Workers int

	// StreamBuffer is the per-subscriber event ring size; non-positive
	// selects 256. When a subscriber's ring is full its oldest event is
	// dropped and counted — publishing never blocks.
	StreamBuffer int

	// StoreDir roots the content-addressed report store; empty keeps
	// reports in memory only.
	StoreDir string

	// Catalog optionally provides server-wide scenarios and sweeps (the
	// -scenarios catalog of the CLI). Submissions may also embed their
	// own catalog, which shadows this one for that job.
	Catalog *fleet.ScenarioFile

	// Log receives operational one-liners (job lifecycle, drain
	// progress); nil discards them.
	Log io.Writer
}

// Server is the campaign service: a multi-tenant job queue in front of
// the fleet worker pool. Create one with NewServer, expose it with
// Handler, stop it with Drain.
type Server struct {
	cfg   Config
	store *Store

	mu      sync.Mutex
	cond    *sync.Cond // signalled when running drops or draining flips
	jobs    map[string]*job
	order   []string          // job IDs in admission order, for listings
	pending map[string][]*job // per-tenant FIFO queues
	ring    []string          // round-robin tenant order; invariant: tenant listed iff its queue is non-empty
	running int
	next    int
	drain   bool
}

// NewServer builds a Server, opening (or creating) the report store.
func NewServer(cfg Config) (*Server, error) {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 1
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	store, err := NewStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		jobs:    make(map[string]*job),
		pending: make(map[string][]*job),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// logf writes one operational line, if a log sink is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, "service: "+format+"\n", args...)
	}
}

// Submit validates and admits a job. The returned status is the job's
// admission snapshot (state pending); execution is scheduled in the
// background.
func (s *Server) Submit(sub *submission) (JobStatus, error) {
	j, err := s.buildJob(sub)
	if err != nil {
		return JobStatus{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.drain {
		return JobStatus{}, ErrDraining
	}
	if len(s.pending[j.tenant]) >= s.cfg.QueueLimit {
		return JobStatus{}, fmt.Errorf("%w: tenant %q has %d pending jobs", ErrQueueFull, j.tenant, s.cfg.QueueLimit)
	}
	s.next++
	j.id = fmt.Sprintf("job-%06d", s.next)
	j.submitted = time.Now().UTC()
	j.state = StatePending
	j.hub = newHub(s.cfg.StreamBuffer)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.pending[j.tenant]) == 0 {
		s.ring = append(s.ring, j.tenant)
	}
	s.pending[j.tenant] = append(s.pending[j.tenant], j)
	s.logf("job %s admitted: tenant=%s kind=%s target=%s", j.id, j.tenant, j.kind, j.target)
	st := j.status()
	j.hub.publish(jsonEvent("job", st))
	s.scheduleLocked()
	return st, nil
}

// buildJob resolves a submission against the catalogs into an executable
// job definition. Validation failures here are the client's (HTTP 400).
func (s *Server) buildJob(sub *submission) (*job, error) {
	if (sub.Campaign == nil) == (sub.Sweep == nil) {
		return nil, errors.New("service: submission must carry exactly one of campaign or sweep")
	}
	catalog := s.cfg.Catalog
	if len(sub.Catalog) > 0 {
		emb, err := fleet.ParseScenarioFile(bytes.NewReader(sub.Catalog))
		if err != nil {
			return nil, err
		}
		catalog = emb
	}
	lookup := func(name string) (fleet.Scenario, bool) {
		if catalog != nil {
			return catalog.Lookup(name)
		}
		return fleet.Lookup(name)
	}

	j := &job{tenant: sub.Tenant, trace: sub.Trace, def: new(jobDef)}
	if j.tenant == "" {
		j.tenant = "default"
	}

	if c := sub.Campaign; c != nil {
		sc, ok := lookup(c.Scenario)
		if !ok {
			return nil, fmt.Errorf("service: unknown scenario %q", c.Scenario)
		}
		camp := fleet.Campaign{Scenario: sc, Runs: c.Runs, Seed: c.Seed, Workers: s.cfg.Workers}
		if camp.Runs == 0 {
			camp.Runs = 100
		}
		if err := camp.Validate(); err != nil {
			return nil, err
		}
		j.kind, j.target = KindCampaign, c.Scenario
		j.def.campaign = camp
		j.runsTotal = camp.Runs
		return j, nil
	}

	sp := sub.Sweep
	if catalog == nil {
		return nil, errors.New("service: sweep jobs need a catalog (embedded in the submission, or configured on the server)")
	}
	if sw, ok := catalog.LookupSweep(sp.Name); ok {
		if sp.Runs != 0 || sw.Runs == 0 {
			sw.Runs = sp.Runs
		}
		if sw.Runs == 0 {
			sw.Runs = 100
		}
		if sp.Seed != 0 {
			sw.Seed = sp.Seed
		}
		sw.Workers = s.cfg.Workers
		plan, err := fleet.PlanSweep(sw)
		if err != nil {
			return nil, err
		}
		j.kind, j.target = KindSweep, sp.Name
		j.def.sweep = sw
		j.runsTotal = len(plan.Cells()) * sw.Runs
		return j, nil
	}
	if as, ok := catalog.LookupAdaptive(sp.Name); ok {
		if sp.Runs != 0 || as.Runs == 0 {
			as.Runs = sp.Runs
		}
		if as.Runs == 0 {
			as.Runs = 100
		}
		if sp.Seed != 0 {
			as.Seed = sp.Seed
		}
		as.Workers = s.cfg.Workers
		if err := as.Validate(); err != nil {
			return nil, err
		}
		j.kind, j.target = KindAdaptive, sp.Name
		j.def.adaptive = as
		// An adaptive search decides its own cell count as it bisects, so
		// the total is unknown up front; runs_total stays 0.
		return j, nil
	}
	return nil, fmt.Errorf("service: unknown sweep %q in the catalog", sp.Name)
}

// scheduleLocked starts pending jobs while concurrency lanes are free,
// drawing tenants round-robin and each tenant's jobs FIFO. Callers hold
// s.mu.
func (s *Server) scheduleLocked() {
	for !s.drain && s.running < s.cfg.MaxConcurrent {
		j := s.nextLocked()
		if j == nil {
			return
		}
		s.running++
		j.state = StateRunning
		j.started = time.Now().UTC()
		ctx, cancel := context.WithCancel(context.Background())
		j.cancel = cancel
		j.hub.publish(jsonEvent("job", j.status()))
		s.logf("job %s running", j.id)
		go s.execute(ctx, j)
	}
}

// nextLocked pops the next job: the head of the queue of the tenant at
// the front of the round-robin ring, which then rotates to the back (or
// leaves the ring when its queue empties). Callers hold s.mu.
func (s *Server) nextLocked() *job {
	if len(s.ring) == 0 {
		return nil
	}
	tenant := s.ring[0]
	q := s.pending[tenant]
	j := q[0]
	q = q[1:]
	s.ring = s.ring[1:]
	if len(q) == 0 {
		delete(s.pending, tenant)
	} else {
		s.pending[tenant] = q
		s.ring = append(s.ring, tenant)
	}
	return j
}

// execute runs one job to completion on its own goroutine and publishes
// its lifecycle to the job's hub. The simulation itself fans across the
// fleet worker pool; the hooks below are the only service-side code on
// that hot path, and every event they publish is non-blocking.
func (s *Server) execute(ctx context.Context, j *job) {
	hub := j.hub // retire clears the field; the hooks keep publishing here
	hooks := &fleet.RunHooks{
		OnResult: func(cell string, r fleet.RunResult, snap *fleet.Aggregate) {
			s.mu.Lock()
			j.runsDone++
			s.mu.Unlock()
			hub.publish(jsonEvent("run", runEvent{
				Cell: cell, Run: r.Run, Seed: r.Seed,
				Rounds: r.Rounds, Attempted: r.Attempted, Delivered: r.Delivered,
				Cover: r.Cover, Error: r.Err,
			}))
			hub.publish(jsonEvent("aggregate", snap))
		},
	}
	if j.trace {
		hooks.RoundTrace = func(cell string, run int, o radio.RoundObservation) {
			ev := roundEvent{Cell: cell, Run: run, Round: o.Round, FaultDrops: o.FaultDrops}
			for _, a := range o.Actions {
				if a.Op != 0 {
					ev.Live++
				}
			}
			ev.Jammed = len(o.Adversarial)
			for ch, n := range o.Transmitters {
				if n > 1 {
					ev.Collisions++
				}
				if o.Delivered[ch] != nil {
					ev.Delivered++
				}
			}
			hub.publish(jsonEvent("round", ev))
		}
	}

	var (
		blob []byte
		err  error
	)
	switch j.kind {
	case KindCampaign:
		var agg *fleet.Aggregate
		agg, err = fleet.RunWithHooks(ctx, j.def.campaign, hooks)
		if err == nil {
			blob, err = encodeReport(agg)
		}
	case KindSweep:
		var matrix *fleet.SweepResult
		matrix, err = fleet.RunSweepWithHooks(ctx, j.def.sweep, hooks)
		if err == nil {
			blob, err = encodeReport(matrix)
		}
	case KindAdaptive:
		var res *fleet.AdaptiveResult
		res, err = fleet.RunAdaptiveSweep(ctx, j.def.adaptive)
		if err == nil {
			blob, err = encodeReport(res)
		}
	}

	var sha string
	if err == nil {
		sha, err = s.store.Put(blob)
	}

	s.mu.Lock()
	j.finished = time.Now().UTC()
	switch {
	case ctx.Err() != nil:
		j.state = StateCancelled
		j.errMsg = "cancelled"
	case err != nil:
		j.state = StateFailed
		j.errMsg = err.Error()
	default:
		j.state = StateDone
		j.reportSHA = sha
	}
	st := j.status()
	j.retire()
	s.running--
	s.scheduleLocked()
	s.cond.Broadcast()
	s.mu.Unlock()

	s.logf("job %s %s (%d runs)", j.id, st.State, st.RunsDone)
	hub.closeWith(jsonEvent("end", st))
}

// jsonReport is the deterministic JSON surface shared by the three
// report kinds; the service stores exactly these bytes.
type jsonReport interface{ WriteJSON(w io.Writer) error }

// encodeReport renders a report through the same WriteJSON the CLI's
// -format json uses, so a stored report is byte-identical to the
// one-shot CLI's output for the same definition and seed.
func encodeReport(r jsonReport) ([]byte, error) {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Status returns one job's current status.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	return j.status(), nil
}

// List returns every job's status in admission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Cancel cancels a job: a pending job leaves the queue immediately, a
// running one has its context cancelled (the worker pool stops
// dispatching and in-flight simulations abort at their next round
// boundary, exactly like the CLI on SIGINT). Cancelling a terminal job
// is an error.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobStatus{}, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	switch j.state {
	case StatePending:
		s.dequeueLocked(j)
		j.state = StateCancelled
		j.errMsg = "cancelled"
		j.finished = time.Now().UTC()
		st := j.status()
		h := j.retire()
		s.mu.Unlock()
		s.logf("job %s cancelled while pending", j.id)
		h.closeWith(jsonEvent("end", st))
		return st, nil
	case StateRunning:
		st := j.status()
		cancel := j.cancel
		s.mu.Unlock()
		cancel()
		return st, nil
	default:
		st := j.status()
		s.mu.Unlock()
		return st, fmt.Errorf("%w: %s is %s", ErrTerminal, id, st.State)
	}
}

// dequeueLocked removes a pending job from its tenant queue, dropping
// the tenant from the round-robin ring when the queue empties. Callers
// hold s.mu.
func (s *Server) dequeueLocked(j *job) {
	q := s.pending[j.tenant]
	for i, qj := range q {
		if qj == j {
			q = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	if len(q) > 0 {
		s.pending[j.tenant] = q
		return
	}
	delete(s.pending, j.tenant)
	for i, t := range s.ring {
		if t == j.tenant {
			s.ring = append(s.ring[:i:i], s.ring[i+1:]...)
			return
		}
	}
}

// Subscribe attaches a streaming consumer to a job's event hub. The
// stream opens with a "job" status snapshot, so a consumer who attaches
// mid-job still sees the current state before the live events. The
// caller must unsubscribe when done. Subscribing to a finished job
// yields just the terminal event.
func (s *Server) Subscribe(id string) (*subscriber, *hub, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	snapshot := jsonEvent("job", j.status())
	h := j.hub
	if h == nil {
		// Retired: replay the terminal event, which status() reproduces
		// byte for byte because a terminal job's status never changes.
		h = newHub(1)
		h.closeWith(jsonEvent("end", j.status()))
	}
	s.mu.Unlock()
	return h.subscribe(&snapshot), h, nil
}

// Report returns a completed job's stored report bytes.
func (s *Server) Report(id string) ([]byte, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var sha string
	if ok {
		sha = j.reportSHA
	}
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	if sha == "" {
		return nil, fmt.Errorf("service: job %s has no report (state %s)", id, s.mustState(id))
	}
	return s.store.Get(sha)
}

// mustState reads a job's state for error messages.
func (s *Server) mustState(id string) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j.state
	}
	return ""
}

// Blob serves a stored report by content address.
func (s *Server) Blob(sha string) ([]byte, error) {
	return s.store.Get(sha)
}

// Drain shuts the server down gracefully: it stops admitting, cancels
// every still-pending job (their subscribers get a terminal event), and
// waits for the running jobs to finish. If ctx expires first the
// running jobs are cancelled too, and Drain still waits for them to
// unwind (cancellation aborts simulations at the next round boundary,
// so the tail is bounded). Returns ctx's error when the deadline forced
// cancellation.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.drain = true
	var dropped []*job
	for _, q := range s.pending {
		dropped = append(dropped, q...)
	}
	s.pending = make(map[string][]*job)
	s.ring = nil
	ends := make([]Event, len(dropped))
	hubs := make([]*hub, len(dropped))
	for i, j := range dropped {
		j.state = StateCancelled
		j.errMsg = "cancelled: server draining"
		j.finished = time.Now().UTC()
		ends[i] = jsonEvent("end", j.status())
		hubs[i] = j.retire()
	}
	running := s.running
	s.mu.Unlock()

	for i, h := range hubs {
		h.closeWith(ends[i])
	}
	s.logf("draining: %d pending cancelled, %d running", len(dropped), running)

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.mu.Lock()
		defer s.mu.Unlock()
		for s.running > 0 {
			s.cond.Wait()
		}
	}()

	select {
	case <-done:
		s.logf("drained")
		return nil
	case <-ctx.Done():
	}

	// Deadline: force-cancel whatever is still running, then wait for the
	// executors to unwind — they always do, because cancellation reaches
	// the radio engine's round loop.
	s.mu.Lock()
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	s.logf("drain deadline: cancelling running jobs")
	<-done
	return ctx.Err()
}
