// Package testnet is the multi-process harness for the socket-backed
// radio transports: it runs one fleet scenario across K OS processes
// connected by real UDP sockets, and asserts that every process arrives
// at the same result.
//
// The harness replicates deterministically instead of partitioning
// state: every worker process runs the FULL scenario — all N node
// programs, the adversary, the fault plan — which is possible because a
// seeded run's committed transmissions are a pure function of the
// configuration. What travels between processes is the physical layer
// only:
//
//   - each worker sends the transmission envelopes it OWNS (origin id
//     modulo the worker count; rank 0 owns the adversary) as UDP
//     datagrams to the coordinator's per-channel hub sockets;
//   - the coordinator — the parent process — collects the datagrams
//     within a receive window, applies the shared injected-loss
//     decision (udp.DropDecision), resolves collisions, and broadcasts
//     the authoritative per-channel outcome to every worker over its
//     TCP control connection;
//   - each worker materializes delivered payloads from its own memory
//     by (origin, channel) lookup — it committed the identical
//     transmission set, so the payload is always at hand — and feeds
//     the outcome to its engine through the radio.Transport seam.
//
// Divergence is therefore impossible to miss: the coordinator
// cross-checks every worker's committed transmission set every round,
// and the harness compares the workers' final results for equality.
//
// Workers are launched by self-exec using the same argv-dispatch
// pattern as the sweep fabric: the parent spawns its own binary with
// WorkerArg, and the binary's TestMain (or main) routes that argv to
// RunWorker before the test framework sees it.
package testnet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sort"
	"time"

	"securadio/internal/fleet"
	"securadio/internal/frame"
	"securadio/internal/radio"
	"securadio/internal/transport/udp"
)

// WorkerArg is the argv[1] marker that routes a self-exec'd process
// into RunWorker.
const WorkerArg = "__testnet_worker"

// DefaultWindow is the coordinator's receive-window cutoff per round.
const DefaultWindow = 2 * time.Second

// Config describes one multi-process run.
type Config struct {
	// Workers is the number of OS processes (>= 1).
	Workers int

	// Scenario names a fleet registry scenario; every worker resolves
	// the same name from its own compiled-in registry.
	Scenario string

	// Seed drives the run in every process.
	Seed int64

	// Loss is the injected datagram-loss probability applied by the
	// coordinator (udp.DropDecision semantics: pure, reproducible).
	Loss float64

	// Window is the per-round receive cutoff (0 selects DefaultWindow).
	Window time.Duration

	// Exec overrides the worker binary (default os.Args[0] — self-exec).
	Exec string
}

// Validate reports whether the harness configuration is well formed.
func (c Config) Validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("testnet: workers = %d, want >= 1", c.Workers)
	}
	if _, ok := fleet.Lookup(c.Scenario); !ok {
		return fmt.Errorf("testnet: unknown scenario %q", c.Scenario)
	}
	if c.Loss < 0 || c.Loss > 1 {
		return fmt.Errorf("testnet: loss = %v, want in [0, 1]", c.Loss)
	}
	if c.Window < 0 {
		return fmt.Errorf("testnet: window = %v, want >= 0", c.Window)
	}
	return nil
}

// hello is the coordinator→worker handshake line.
type hello struct {
	Rank     int      `json:"rank"`
	Workers  int      `json:"workers"`
	Scenario string   `json:"scenario"`
	Seed     int64    `json:"seed"`
	Loss     float64  `json:"loss"`
	Hubs     []string `json:"hubs"` // per-channel UDP hub addresses
}

// commitLine is the worker→coordinator per-round commit: the complete
// committed transmission set, as (from, channel) pairs in commit order.
// Every worker must send the identical line — the lockstep cross-check.
type commitLine struct {
	Round int      `json:"round"`
	Txs   [][2]int `json:"txs"`
}

// outcomeLine is the coordinator→worker authoritative resolution.
type outcomeLine struct {
	Round int          `json:"round"`
	Outs  []outcomeRec `json:"outs"`
	Err   string       `json:"err,omitempty"` // coordinator-side abort
}

type outcomeRec struct {
	Channel      int  `json:"c"`
	Transmitters int  `json:"n"`
	From         int  `json:"from"`
	Dropped      bool `json:"dropped,omitempty"`
}

// doneLine is the worker→coordinator final report.
type doneLine struct {
	Done   bool            `json:"done"`
	Result fleet.RunResult `json:"result"`
}

// Run executes the configured scenario across cfg.Workers processes and
// returns the workers' (identical) run result. It is the coordinator
// side: it owns the TCP control plane and the UDP channel hubs, spawns
// the workers via self-exec, resolves every round, and cross-checks
// both the per-round transmission sets and the final results.
func Run(ctx context.Context, cfg Config) (fleet.RunResult, error) {
	var zero fleet.RunResult
	if err := cfg.Validate(); err != nil {
		return zero, err
	}
	scen, _ := fleet.Lookup(cfg.Scenario)
	window := cfg.Window
	if window == 0 {
		window = DefaultWindow
	}
	execPath := cfg.Exec
	if execPath == "" {
		execPath = os.Args[0]
	}

	// Control plane + hubs.
	lis, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return zero, fmt.Errorf("testnet: listen: %w", err)
	}
	defer lis.Close()
	hubs := make([]*net.UDPConn, scen.C)
	addrs := make([]string, scen.C)
	defer func() {
		for _, h := range hubs {
			if h != nil {
				h.Close()
			}
		}
	}()
	for c := 0; c < scen.C; c++ {
		h, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
		if err != nil {
			return zero, fmt.Errorf("testnet: bind hub %d: %w", c, err)
		}
		_ = h.SetReadBuffer(udp.DefaultReadBuffer)
		hubs[c] = h
		addrs[c] = h.LocalAddr().String()
	}

	// Spawn workers (killed via ctx on any exit path).
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	cmds := make([]*exec.Cmd, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		cmd := exec.CommandContext(ctx, execPath, WorkerArg, lis.Addr().String())
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return zero, fmt.Errorf("testnet: spawn worker %d: %w", w, err)
		}
		cmds[w] = cmd
	}
	defer func() {
		cancel()
		for _, cmd := range cmds {
			if cmd != nil && cmd.Process != nil {
				_ = cmd.Wait()
			}
		}
	}()

	// Handshake: accept one control connection per worker.
	type worker struct {
		conn net.Conn
		r    *frame.Reader
		enc  *json.Encoder
	}
	workers := make([]worker, cfg.Workers)
	_ = lis.(*net.TCPListener).SetDeadline(time.Now().Add(30 * time.Second))
	for w := 0; w < cfg.Workers; w++ {
		conn, err := lis.Accept()
		if err != nil {
			return zero, fmt.Errorf("testnet: worker %d never connected: %w", w, err)
		}
		defer conn.Close()
		peer := fmt.Sprintf("testnet worker %d (%s)", w, conn.RemoteAddr())
		workers[w] = worker{conn: conn, r: frame.NewReader(conn, frame.MaxLine, peer), enc: json.NewEncoder(conn)}
		h := hello{Rank: w, Workers: cfg.Workers, Scenario: cfg.Scenario, Seed: cfg.Seed, Loss: cfg.Loss, Hubs: addrs}
		if err := workers[w].enc.Encode(h); err != nil {
			return zero, fmt.Errorf("testnet: handshake worker %d: %w", w, err)
		}
	}

	// Hub reader: one goroutine per hub feeding the shared envelope
	// queue; hubs close on return, which unblocks the readers.
	recvq := make(chan [3]int, 4096) // round, from, channel
	for _, h := range hubs {
		go func(h *net.UDPConn) {
			var buf [64]byte
			for {
				n, err := h.Read(buf[:])
				if err != nil {
					return
				}
				if env, ok := udp.ParseEnvelope(buf[:n]); ok {
					select {
					case recvq <- env:
					case <-ctx.Done():
						return
					}
				}
			}
		}(h)
	}

	// Round loop.
	var results []fleet.RunResult
	for round := 0; ; round++ {
		// Collect the per-round commit (or the final result) from every
		// worker, and verify the replicas stayed in lockstep.
		var ref commitLine
		live := 0
		for w := range workers {
			_ = workers[w].conn.SetReadDeadline(time.Now().Add(60 * time.Second))
			line, err := workers[w].r.ReadLine()
			if err != nil {
				return zero, fmt.Errorf("testnet: worker %d round %d: control read: %w", w, round, err)
			}
			var done doneLine
			if err := json.Unmarshal(line, &done); err == nil && done.Done {
				results = append(results, done.Result)
				continue
			}
			var cl commitLine
			if err := json.Unmarshal(line, &cl); err != nil {
				return zero, fmt.Errorf("testnet: worker %d round %d: bad control line %q", w, round, line)
			}
			if cl.Round != round {
				return zero, fmt.Errorf("testnet: worker %d committed round %d, coordinator at %d", w, cl.Round, round)
			}
			if live == 0 {
				ref = cl
			} else if fmt.Sprint(cl.Txs) != fmt.Sprint(ref.Txs) {
				return zero, fmt.Errorf("testnet: round %d: worker %d diverged: %v vs %v", round, w, cl.Txs, ref.Txs)
			}
			live++
		}
		if live == 0 {
			break // every worker reported done
		}
		if live != cfg.Workers {
			return zero, fmt.Errorf("testnet: round %d: %d of %d workers still running — replicas diverged", round, live, cfg.Workers)
		}

		// Collect the owned datagrams within the receive window.
		seen := make(map[[2]int]bool, len(ref.Txs))
		if len(ref.Txs) > 0 {
			timer := time.NewTimer(window)
		collect:
			for len(seen) < len(ref.Txs) {
				select {
				case env := <-recvq:
					if env[0] != round {
						continue
					}
					seen[[2]int{env[1], env[2]}] = true
				case <-timer.C:
					break collect
				case <-ctx.Done():
					timer.Stop()
					return zero, fmt.Errorf("testnet: canceled at round %d: %w", round, context.Cause(ctx))
				}
			}
			timer.Stop()
		}

		// Resolve and broadcast the authoritative outcome.
		byChan := make(map[int]*outcomeRec)
		for _, tx := range ref.Txs {
			from, ch := tx[0], tx[1]
			rec := byChan[ch]
			if rec == nil {
				rec = &outcomeRec{Channel: ch}
				byChan[ch] = rec
			}
			if !seen[[2]int{from, ch}] || udp.DropDecision(cfg.Seed, round, ch, from, cfg.Loss) {
				rec.Dropped = true
				continue
			}
			rec.Transmitters++
			if rec.Transmitters == 1 {
				rec.From = from
			}
		}
		out := outcomeLine{Round: round, Outs: make([]outcomeRec, 0, len(byChan))}
		for _, rec := range byChan {
			out.Outs = append(out.Outs, *rec)
		}
		sort.Slice(out.Outs, func(a, b int) bool { return out.Outs[a].Channel < out.Outs[b].Channel })
		for w := range workers {
			if err := workers[w].enc.Encode(out); err != nil {
				return zero, fmt.Errorf("testnet: worker %d round %d: outcome write: %w", w, round, err)
			}
		}
	}

	// Every worker finished: their results must be identical. Elapsed is
	// wall-clock — the one legitimately nondeterministic field — so it is
	// normalized out of both the cross-check and the returned result.
	for i := range results {
		results[i].Elapsed = 0
	}
	for i := 1; i < len(results); i++ {
		a, _ := json.Marshal(results[0])
		b, _ := json.Marshal(results[i])
		if string(a) != string(b) {
			return zero, fmt.Errorf("testnet: worker results diverged:\n  worker 0: %s\n  worker %d: %s", a, i, b)
		}
	}
	return results[0], nil
}

// RunWorker is the child-process entry point: dial the coordinator at
// addr, run the full scenario with the replica transport, and report
// the result. The caller's main (or TestMain) routes the process here
// when os.Args[1] == WorkerArg, passing os.Args[2] as addr, before its
// normal flow.
func RunWorker(ctx context.Context, addr string) error {
	conn, err := net.Dial("tcp4", addr)
	if err != nil {
		return fmt.Errorf("testnet worker: dial coordinator: %w", err)
	}
	defer conn.Close()
	r := frame.NewReader(conn, frame.MaxLine, "testnet coordinator "+addr)
	var h hello
	line, err := r.ReadLine()
	if err != nil {
		return fmt.Errorf("testnet worker: handshake: %w", err)
	}
	if err := json.Unmarshal(line, &h); err != nil {
		return fmt.Errorf("testnet worker: bad hello %q", line)
	}
	scen, ok := fleet.Lookup(h.Scenario)
	if !ok {
		return fmt.Errorf("testnet worker: unknown scenario %q", h.Scenario)
	}

	sender, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
	if err != nil {
		return fmt.Errorf("testnet worker: bind sender: %w", err)
	}
	defer sender.Close()
	hubs := make([]*net.UDPAddr, len(h.Hubs))
	for i, a := range h.Hubs {
		ua, err := net.ResolveUDPAddr("udp4", a)
		if err != nil {
			return fmt.Errorf("testnet worker: hub %d: %w", i, err)
		}
		hubs[i] = ua
	}

	scen.Transport = &replicaTransport{
		rank: h.Rank, workers: h.Workers,
		conn: conn, r: r, enc: json.NewEncoder(conn),
		sender: sender, hubs: hubs,
	}
	res := scen.Execute(ctx, 0, h.Seed)
	return json.NewEncoder(conn).Encode(doneLine{Done: true, Result: res})
}

// replicaTransport is the worker-side radio.Transport: it reports every
// committed round to the coordinator, carries its owned envelopes over
// UDP, and applies the coordinator's authoritative outcome.
type replicaTransport struct {
	rank, workers int
	conn          net.Conn
	r             *frame.Reader
	enc           *json.Encoder
	sender        *net.UDPConn
	hubs          []*net.UDPAddr
}

func (rt *replicaTransport) Name() string { return "testnet" }

func (rt *replicaTransport) Open(cfg radio.Config) (radio.Conn, error) {
	return &replicaConn{rt: rt}, nil
}

// owns reports whether this worker carries the given origin's
// datagrams. Node IDs partition modulo the worker count; rank 0 owns
// the adversary.
func (rt *replicaTransport) owns(from int) bool {
	if from < 0 {
		return rt.rank == 0
	}
	return from%rt.workers == rt.rank
}

type replicaConn struct {
	rt  *replicaTransport
	out []radio.ChannelOutcome
}

func (rc *replicaConn) Commit(round int, txs []radio.WireTx) ([]radio.ChannelOutcome, error) {
	rt := rc.rt

	// 1. Control: report the complete committed set (lockstep check).
	cl := commitLine{Round: round, Txs: make([][2]int, len(txs))}
	for i, tx := range txs {
		cl.Txs[i] = [2]int{tx.From, tx.Channel}
	}
	if err := rt.enc.Encode(cl); err != nil {
		return nil, fmt.Errorf("testnet: commit write: %w", err)
	}

	// 2. Medium: carry the owned envelopes over real UDP.
	for _, tx := range txs {
		if !rt.owns(tx.From) {
			continue
		}
		if _, err := rt.sender.WriteToUDP(udp.AppendEnvelope(nil, round, tx.From, tx.Channel), rt.hubs[tx.Channel]); err != nil {
			return nil, fmt.Errorf("testnet: send: %w", err)
		}
	}

	// 3. Authority: apply the coordinator's resolution, materializing
	// payloads from local memory — every replica committed the same
	// set, so the payload for any surviving (origin, channel) is here.
	line, err := rt.r.ReadLine()
	if err != nil {
		return nil, fmt.Errorf("testnet: outcome read: %w", err)
	}
	var ol outcomeLine
	if err := json.Unmarshal(line, &ol); err != nil {
		return nil, fmt.Errorf("testnet: bad outcome line %q", line)
	}
	if ol.Err != "" {
		return nil, errors.New(ol.Err)
	}
	if ol.Round != round {
		return nil, fmt.Errorf("testnet: outcome for round %d while committing %d", ol.Round, round)
	}
	rc.out = rc.out[:0]
	for _, rec := range ol.Outs {
		oc := radio.ChannelOutcome{
			Channel:      rec.Channel,
			Transmitters: rec.Transmitters,
			From:         rec.From,
			Dropped:      rec.Dropped,
		}
		if rec.Transmitters == 1 {
			for _, tx := range txs {
				if tx.From == rec.From && tx.Channel == rec.Channel {
					oc.Msg = tx.Msg
					break
				}
			}
		}
		rc.out = append(rc.out, oc)
	}
	return rc.out, nil
}

func (rc *replicaConn) Close() error {
	// The transport's sockets are owned by RunWorker (they outlive the
	// engine run only long enough to send the done line); closing the
	// control connection here would race the final report.
	return nil
}
