// Package fabric distributes fleet sweeps across worker processes and
// hosts. A Coordinator decomposes a cartesian or adaptive sweep into
// whole-cell leases (internal/fleet's PlanSweep / AdaptiveSearch), hands
// each lease to an attached worker over a line-delimited JSON protocol —
// stdin/stdout pipes for subprocess workers, TCP for remote ones — and
// merges the returned aggregates into the same report the in-process
// executors build. Because every cell's aggregate is a pure function of
// its plan (scenario, runs, derived seed), the assembled report is
// byte-identical to the single-process path regardless of worker count,
// topology, or completion order.
//
// Leases carry deadlines: a cell still outstanding past the lease
// timeout is re-issued to the next idle worker, so a crashed or hung
// worker delays its cells instead of losing them. Duplicate completions
// are resolved deterministically — the first valid payload wins, a
// byte-identical late duplicate is ignored, and a conflicting payload
// aborts the sweep, since two honest executions of the same plan cannot
// disagree. An optional checkpoint journal records each completed cell
// as it lands; a killed sweep resumes by replaying the journal and
// leasing only the remainder.
package fabric

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"securadio/internal/fleet"
)

// defaultLeaseTimeout bounds how long one cell lease may stay
// outstanding before the coordinator re-issues it. Cells in this repo's
// sweeps run in seconds; two minutes distinguishes a dead worker from a
// slow one without stalling recovery.
const defaultLeaseTimeout = 2 * time.Minute

// Config parameterizes a Coordinator.
type Config struct {
	// LeaseTimeout bounds how long a leased cell may stay outstanding
	// before it is re-issued to another worker; non-positive selects two
	// minutes. The original worker is not killed — if its result arrives
	// late it is accepted (or deduplicated) like any other completion.
	LeaseTimeout time.Duration

	// Checkpoint is the journal path; empty disables checkpointing.
	Checkpoint string

	// Resume replays an existing journal at Checkpoint instead of
	// refusing to overwrite it, re-leasing only the cells the journal
	// does not already complete.
	Resume bool

	// Log receives progress and warning lines (lease re-issues, ignored
	// duplicates, discarded partial journal records); nil discards them.
	Log io.Writer
}

// Coordinator drives one sweep across a set of attached workers. Attach
// workers first (AttachLocal, AttachExec, ListenTCP, AttachStream — in
// any combination), then call RunSweep or RunAdaptiveSweep exactly once,
// then Close. A Coordinator is single-use: the duplicate-completion
// ledger spans one run.
type Coordinator struct {
	cfg Config

	ready  chan *session
	events chan event
	closed chan struct{}

	closeOnce sync.Once

	mu        sync.Mutex
	live      int             // attached sessions that have not failed
	acceptors int             // open listeners that may attach more
	runCtx    context.Context // run-scoped ctx local transports execute under
	runCancel context.CancelFunc
	reissues  int
	procs     []*workerProc
	conns     []io.Closer
	listeners []net.Listener

	// Dispatcher-owned state (touched only from the Run* goroutine).
	idle     []*session
	payloads map[int][]byte    // completed cell index -> canonical aggregate bytes
	names    map[int]string    // completed cell index -> cell name (for messages)
	starts   map[int]time.Time // leased cell index -> latest lease-issue time
}

type workerProc struct {
	cmd   *exec.Cmd
	stdin io.Closer
}

// session is one attached worker: a goroutine pumping the
// ready/lease/event cycle over its transport.
type session struct {
	name    string
	t       transport
	leaseCh chan fleet.CellPlan
	gone    sync.Once
}

// event is a session's report to the dispatcher: a completed aggregate,
// a worker-reported cell failure, or a fatal session error. index is -1
// when the event is not tied to a lease.
type event struct {
	s       *session
	index   int
	agg     *fleet.Aggregate
	failure string
	err     error
}

// transport is the execution half of a session: issue one lease, block
// for its outcome.
type transport interface {
	// handshake blocks until the worker announces itself.
	handshake() error
	// roundTrip executes one lease: the cell's finalized aggregate, or a
	// worker-reported failure (fatal to the sweep — cell failures are
	// deterministic), or a transport error (fatal to the session only).
	roundTrip(lease fleet.CellPlan) (*fleet.Aggregate, string, error)
	// close tears the attachment down.
	close() error
}

// New returns a Coordinator with no workers attached.
func New(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:      cfg,
		ready:    make(chan *session),
		events:   make(chan event),
		closed:   make(chan struct{}),
		payloads: make(map[int][]byte),
		names:    make(map[int]string),
		starts:   make(map[int]time.Time),
	}
}

func (co *Coordinator) leaseTimeout() time.Duration {
	if co.cfg.LeaseTimeout > 0 {
		return co.cfg.LeaseTimeout
	}
	return defaultLeaseTimeout
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.cfg.Log != nil {
		fmt.Fprintf(co.cfg.Log, format+"\n", args...)
	}
}

// Reissues reports how many leases expired and were re-queued. Read it
// after the run returns.
func (co *Coordinator) Reissues() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.reissues
}

// liveSessions reports how many attached sessions have not failed; the
// ETA estimator divides remaining serial work across them.
func (co *Coordinator) liveSessions() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.live
}

// attachable reports whether any worker could still complete a lease:
// a live session exists, or a listener may yet accept one.
func (co *Coordinator) attachable() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.live > 0 || co.acceptors > 0
}

// startSession registers a new attachment and launches its pump.
func (co *Coordinator) startSession(name string, t transport) {
	s := &session{name: name, t: t, leaseCh: make(chan fleet.CellPlan)}
	co.mu.Lock()
	co.live++
	co.mu.Unlock()
	go co.runSession(s)
}

// markGone retires a session from the live count. It runs before the
// session's final event is posted, so the dispatcher's stall check sees
// the decremented count.
func (co *Coordinator) markGone(s *session) {
	s.gone.Do(func() {
		co.mu.Lock()
		co.live--
		co.mu.Unlock()
	})
}

// post delivers an event unless the coordinator is closing.
func (co *Coordinator) post(ev event) {
	select {
	case co.events <- ev:
	case <-co.closed:
	}
}

// runSession pumps one worker: announce ready, take a lease, execute it,
// report the outcome, repeat. A transport error retires the session (its
// in-flight cell, if any, is re-queued by the dispatcher); coordinator
// close ends it silently.
func (co *Coordinator) runSession(s *session) {
	defer co.markGone(s)
	if err := s.t.handshake(); err != nil {
		co.markGone(s)
		co.post(event{s: s, index: -1, err: fmt.Errorf("handshake: %w", err)})
		return
	}
	for {
		select {
		case co.ready <- s:
		case <-co.closed:
			return
		}
		var lease fleet.CellPlan
		select {
		case lease = <-s.leaseCh:
		case <-co.closed:
			return
		}
		agg, failure, err := s.t.roundTrip(lease)
		if err != nil {
			co.markGone(s)
		}
		co.post(event{s: s, index: lease.Index, agg: agg, failure: failure, err: err})
		if err != nil {
			return
		}
	}
}

// AttachLocal attaches n in-process workers that execute cells directly
// on the coordinator's cores. Local workers run under the Run* call's
// context, so cancelling the sweep aborts their in-flight cells.
func (co *Coordinator) AttachLocal(n int) {
	for i := 0; i < n; i++ {
		co.startSession(fmt.Sprintf("local-%d", i+1), &localTransport{co: co})
	}
}

// AttachStream attaches one worker over an arbitrary byte stream pair —
// the test seam for the wire protocol, and the building block AttachExec
// and ListenTCP use. closer (optional) is closed on Coordinator.Close.
func (co *Coordinator) AttachStream(name string, r io.Reader, w io.Writer, closer io.Closer) {
	if closer != nil {
		co.mu.Lock()
		co.conns = append(co.conns, closer)
		co.mu.Unlock()
	}
	co.startSession(name, &remoteTransport{name: name, c: newLineCodec(name, r, w)})
}

// AttachExec starts n subprocess workers running argv (typically
// "fleetsim worker ...") and attaches them over stdin/stdout pipes;
// their stderr passes through to the coordinator's stderr.
func (co *Coordinator) AttachExec(argv []string, n int) error {
	if len(argv) == 0 {
		return fmt.Errorf("fabric: empty worker command")
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(argv[0], argv[1:]...)
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		name := fmt.Sprintf("exec-%d[pid %d]", i+1, cmd.Process.Pid)
		co.mu.Lock()
		co.procs = append(co.procs, &workerProc{cmd: cmd, stdin: stdin})
		co.mu.Unlock()
		co.startSession(name, &remoteTransport{name: name, c: newLineCodec(name, stdout, stdin)})
	}
	return nil
}

// ListenTCP binds addr and accepts workers that dial in ("fleetsim
// worker -connect"). It returns the bound address, so addr may use an
// ephemeral port. The listener stays open for the whole run — workers
// may join late or rejoin after a crash — and the coordinator blocks
// waiting for the first one rather than failing an empty fabric.
func (co *Coordinator) ListenTCP(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	co.mu.Lock()
	co.listeners = append(co.listeners, ln)
	co.acceptors++
	co.mu.Unlock()
	go func() {
		defer func() {
			co.mu.Lock()
			co.acceptors--
			co.mu.Unlock()
		}()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			co.mu.Lock()
			co.conns = append(co.conns, conn)
			co.mu.Unlock()
			name := fmt.Sprintf("tcp-%s", conn.RemoteAddr())
			co.startSession(name, &remoteTransport{name: name, c: newLineCodec(name, conn, conn)})
		}
	}()
	return ln.Addr(), nil
}

// Close shuts the fabric down: listeners stop accepting, remote workers
// see EOF and exit, subprocess workers get a grace period before being
// killed. Safe to call more than once.
func (co *Coordinator) Close() {
	co.closeOnce.Do(func() {
		close(co.closed)
		co.mu.Lock()
		if co.runCancel != nil {
			co.runCancel()
		}
		listeners := co.listeners
		conns := co.conns
		procs := co.procs
		co.mu.Unlock()
		for _, ln := range listeners {
			ln.Close()
		}
		for _, c := range conns {
			c.Close()
		}
		var wg sync.WaitGroup
		for _, p := range procs {
			p.stdin.Close() // EOF: the worker's shutdown signal
			wg.Add(1)
			go func(p *workerProc) {
				defer wg.Done()
				done := make(chan struct{})
				go func() { p.cmd.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(2 * time.Second):
					p.cmd.Process.Kill()
					<-done
				}
			}(p)
		}
		wg.Wait()
	})
}

// localTransport executes leases in-process through fleet.Run, under the
// context of the coordinator's active Run* call.
type localTransport struct {
	co *Coordinator
}

func (t *localTransport) handshake() error { return nil }

func (t *localTransport) roundTrip(lease fleet.CellPlan) (*fleet.Aggregate, string, error) {
	t.co.mu.Lock()
	ctx := t.co.runCtx
	t.co.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	agg, err := fleet.Run(ctx, lease.Campaign)
	if err != nil {
		if ctx.Err() != nil {
			// Partial cells never enter the report.
			return nil, "", ctx.Err()
		}
		return nil, err.Error(), nil
	}
	return agg, "", nil
}

func (t *localTransport) close() error { return nil }

// remoteTransport speaks the wire protocol over one byte stream.
type remoteTransport struct {
	name string
	c    *lineCodec
}

func (t *remoteTransport) handshake() error {
	m, err := t.c.recv()
	if err != nil {
		return err
	}
	if m.Type != msgHello {
		return fmt.Errorf("got %q message, want %q", m.Type, msgHello)
	}
	return nil
}

func (t *remoteTransport) roundTrip(lease fleet.CellPlan) (*fleet.Aggregate, string, error) {
	c := lease.Campaign
	if err := t.c.send(message{V: protocolVersion, Type: msgLease, ID: lease.Index, Campaign: &c}); err != nil {
		return nil, "", err
	}
	m, err := t.c.recv()
	if err != nil {
		return nil, "", err
	}
	if m.ID != lease.Index {
		return nil, "", fmt.Errorf("answer for cell %d, want %d", m.ID, lease.Index)
	}
	switch m.Type {
	case msgResult:
		if m.Aggregate == nil {
			return nil, "", fmt.Errorf("result without an aggregate")
		}
		return m.Aggregate, "", nil
	case msgFail:
		if m.Error == "" {
			m.Error = "unspecified worker failure"
		}
		return nil, m.Error, nil
	default:
		return nil, "", fmt.Errorf("got %q message, want %q or %q", m.Type, msgResult, msgFail)
	}
}

func (t *remoteTransport) close() error { return nil }
