package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"securadio/internal/fleet"
)

// State is a job's lifecycle position. Transitions are strictly forward:
// pending → running → one of the terminal states, or pending → cancelled
// for jobs cancelled (or drained) before they started.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job kinds.
const (
	KindCampaign = "campaign"
	KindSweep    = "sweep"
	KindAdaptive = "adaptive"
)

// submission is the POST /jobs body. Exactly one of Campaign or Sweep
// selects the work; Catalog optionally embeds a scenario-file document
// (the exact schema LoadScenarioFile reads) whose scenarios and sweeps
// the job may reference — and which shadows the built-ins, exactly as
// -scenarios does on the CLI.
type submission struct {
	// Tenant names the submitting client; jobs are FIFO within a tenant
	// and tenants share the server fairly. Empty selects "default".
	Tenant string `json:"tenant,omitempty"`

	// Trace additionally streams every radio round of every run to the
	// job's subscribers (event type "round"). Off by default: round
	// events are orders of magnitude more numerous than run events.
	Trace bool `json:"trace,omitempty"`

	// Campaign runs one scenario as a seed-grid campaign.
	Campaign *campaignSpec `json:"campaign,omitempty"`

	// Sweep runs a named sweep — cartesian or adaptive — from the
	// embedded catalog (or the server's).
	Sweep *sweepSpec `json:"sweep,omitempty"`

	// Catalog is an embedded scenario-file document.
	Catalog json.RawMessage `json:"catalog,omitempty"`
}

type campaignSpec struct {
	// Scenario names a built-in, server-catalog or embedded-catalog
	// scenario.
	Scenario string `json:"scenario"`
	Runs     int    `json:"runs,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

type sweepSpec struct {
	// Name names a sweep (cartesian or adaptive) from the embedded or
	// server catalog.
	Name string `json:"name"`
	Runs int    `json:"runs,omitempty"`
	Seed int64  `json:"seed,omitempty"`
}

// parseSubmission strictly decodes a POST /jobs body: unknown fields and
// trailing data are rejected, like every other JSON surface of the repo.
// A read error — an *http.MaxBytesError from the handler's body bound
// among them — is wrapped, wherever in the body it strikes.
func parseSubmission(r io.Reader) (*submission, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sub submission
	if err := dec.Decode(&sub); err != nil {
		return nil, fmt.Errorf("service: job submission: %w", err)
	}
	switch err := dec.Decode(new(json.RawMessage)); {
	case err == io.EOF:
		return &sub, nil
	case errors.As(err, new(*http.MaxBytesError)):
		return nil, fmt.Errorf("service: job submission: %w", err)
	default:
		return nil, errors.New("service: job submission: trailing data after the job object")
	}
}

// job is one queued unit of work and its mutable status. The status
// fields are guarded by the owning Server's mutex; the definition fields
// (kind, def, trace) are immutable after admission. A daemon keeps every
// job it ran, so a terminal job is retired down to its status: see
// retire.
type job struct {
	id     string
	tenant string
	kind   string
	target string
	trace  bool
	def    *jobDef // nil once retired

	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string
	reportSHA string
	runsDone  int
	runsTotal int

	cancel context.CancelFunc
	hub    *hub // nil once retired
}

// jobDef is a job's executable definition; kind selects the field that
// is set.
type jobDef struct {
	campaign fleet.Campaign
	sweep    fleet.Sweep
	adaptive fleet.AdaptiveSweep
}

// retire releases what only a live job needs — its definition, context
// and event hub — once the job has reached a terminal state. It returns
// the hub for the caller to close with the terminal event outside the
// server mutex; Subscribe rebuilds that event from status() for later
// subscribers. Callers hold the server mutex.
func (j *job) retire() *hub {
	h := j.hub
	j.def, j.hub = nil, nil
	if j.cancel != nil {
		j.cancel()
		j.cancel = nil
	}
	return h
}

// JobStatus is a job's JSON view, returned by the status endpoints and
// carried in "job" and "end" events.
type JobStatus struct {
	ID        string     `json:"id"`
	Tenant    string     `json:"tenant"`
	Kind      string     `json:"kind"`
	Target    string     `json:"target"`
	State     State      `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	RunsDone  int        `json:"runs_done"`
	RunsTotal int        `json:"runs_total"`
	Error     string     `json:"error,omitempty"`
	ReportSHA string     `json:"report_sha256,omitempty"`
}

// status snapshots the job's JSON view. Callers hold the server mutex.
func (j *job) status() JobStatus {
	st := JobStatus{
		ID: j.id, Tenant: j.tenant, Kind: j.kind, Target: j.target,
		State: j.state, Submitted: j.submitted,
		RunsDone: j.runsDone, RunsTotal: j.runsTotal,
		Error: j.errMsg, ReportSHA: j.reportSHA,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// runEvent is the payload of a "run" event: one completed simulation run.
type runEvent struct {
	Cell      string `json:"cell"`
	Run       int    `json:"run"`
	Seed      int64  `json:"seed"`
	Rounds    int    `json:"rounds"`
	Attempted int    `json:"attempted"`
	Delivered int    `json:"delivered"`
	Cover     int    `json:"cover"`
	Error     string `json:"error,omitempty"`
}

// roundEvent is the payload of a "round" event: the per-round spectrum
// summary of one radio round of one run (jobs submitted with "trace").
type roundEvent struct {
	Cell       string `json:"cell"`
	Run        int    `json:"run"`
	Round      int    `json:"round"`
	Live       int    `json:"live"`
	Jammed     int    `json:"jammed"`
	Collisions int    `json:"collisions"`
	Delivered  int    `json:"delivered"`
	FaultDrops int    `json:"fault_drops,omitempty"`
}

// jsonEvent encodes a payload into an Event, sharing the bytes across
// all subscribers.
func jsonEvent(typ string, payload any) Event {
	var buf bytes.Buffer
	// Encoding can only fail on unsupported types, which these payloads
	// never contain; an empty Data on failure is still a valid event.
	_ = json.NewEncoder(&buf).Encode(payload)
	return Event{Type: typ, Data: bytes.TrimRight(buf.Bytes(), "\n")}
}
