// Command fleetsim runs scenario campaigns and parameter sweeps: fleets of
// independent radio-network simulations fanned across all cores, with
// streaming aggregation and deterministic matrix reports.
//
// Usage:
//
//	fleetsim list [-scenarios file.json]
//	fleetsim run -campaign fame-jam -runs 500
//	fleetsim run -scenarios my.json -campaign my-scenario -runs 200 -format json
//	fleetsim sweep -base fame-clear -n 20,32,64 -t 0,1 -adv none,jam,combo -runs 100
//	fleetsim sweep -base fame-clear -churn 0,0.1,0.2 -loss 0,0.05 -runs 100
//	fleetsim sweep -scenarios my.json -sweep my-grid -format csv -out grid.csv
//	fleetsim sweep -base fame-worst -adaptive c -min 2 -max 16 -runs 200
//	fleetsim sweep -base fame-jam -t 0,1,2 -runs 500 -workers-exec self -workers 4
//	fleetsim sweep -scenarios my.json -sweep my-grid -checkpoint grid.ckpt
//	fleetsim sweep -scenarios my.json -sweep my-grid -checkpoint grid.ckpt -resume
//	fleetsim sweep -base fame-jam -t 0,1,2 -runs 500 -listen 127.0.0.1:9000
//	fleetsim worker -connect 10.0.0.5:9000
//	fleetsim analyze -in sweep.json -format table
//	fleetsim diff -threshold 0.05 old-sweep.json new-sweep.json
//	fleetsim serve -addr 127.0.0.1:8080 -store ./reports
//	fleetsim serve -scenarios my.json -max-concurrent 2 -queue-limit 32
//
// For a fixed -seed the aggregate and sweep JSON are byte-for-byte
// deterministic, independent of worker count and scheduling, making them
// suitable for cross-PR trajectory tracking; fleetsim diff compares two
// such sweep reports cell by cell and exits non-zero when a cell's
// delivery rate regressed beyond the threshold, so CI can gate on it.
//
// fleetsim serve runs the campaign service: a long-running daemon that
// accepts campaign and sweep jobs over HTTP (POST /jobs, with the same
// JSON schema as -scenarios catalogs), queues them per tenant, streams
// per-run progress as Server-Sent Events (GET /jobs/{id}/events), and
// stores completed reports content-addressed — byte-identical to the
// one-shot CLI's JSON reports. SIGTERM drains gracefully: submissions
// stop, running jobs finish (bounded by -drain-timeout), streams close
// with a terminal event, and the daemon exits 0.
//
// The fabric flags distribute a sweep cell by cell: -workers-exec spawns
// subprocess workers ("self" re-executes this binary's worker
// subcommand, anything else is a command line), -listen accepts remote
// workers over TCP (started with fleetsim worker -connect), and
// -checkpoint journals completed cells so -resume can finish a killed
// sweep without re-running them. Because per-cell aggregates are
// seed-deterministic, the distributed report is byte-identical to the
// single-process one.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"securadio"
	"securadio/internal/metrics"
)

// errReported signals a failure that has already been reported to the
// user (by the FlagSet, or by the interrupted-campaign banner); main must
// exit nonzero without printing it a second time.
var errReported = errors.New("error already reported")

func main() {
	// SIGINT/SIGTERM cancel the campaign: dispatch stops, in-flight
	// simulations abort at their next round boundary, the aggregate of the
	// completed runs is still reported, and the process exits non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errReported) {
			fmt.Fprintln(os.Stderr, "fleetsim:", err)
		}
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: fleetsim <list|run|sweep|worker|serve|analyze|diff> [flags]")
	}
	switch args[0] {
	case "list":
		return runList(args[1:], out)
	case "run":
		return runCampaign(ctx, args[1:], out)
	case "sweep":
		return runSweep(ctx, args[1:], out)
	case "worker":
		return runWorker(ctx, args[1:], out)
	case "serve":
		return runServe(ctx, args[1:], out)
	case "analyze":
		return runAnalyze(args[1:], out)
	case "diff":
		return runDiff(args[1:], out)
	default:
		return fmt.Errorf("unknown command %q (want list, run, sweep, worker, serve, analyze or diff)", args[0])
	}
}

// runWorker serves the fabric worker protocol: leases arrive on stdin
// (or a TCP connection with -connect), each cell campaign runs across
// this process's cores, and the aggregate goes back on the same stream.
// The process exits cleanly when the coordinator closes the stream.
func runWorker(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleetsim worker", flag.ContinueOnError)
	connect := fs.String("connect", "", "dial a coordinator's -listen address over TCP instead of serving stdin/stdout")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errReported
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (the worker takes leases from its coordinator, not the command line)", fs.Arg(0))
	}
	if *connect != "" {
		return securadio.DialSweepWorker(ctx, *connect)
	}
	return securadio.ServeSweepWorker(ctx, os.Stdin, out)
}

// runServe runs the campaign service daemon until the context is
// cancelled (SIGINT/SIGTERM), then drains gracefully: submissions stop,
// running jobs finish within -drain-timeout (force-cancelled past it),
// every subscriber's stream ends with a terminal event, and the exit
// code is 0 for a clean drain.
func runServe(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleetsim serve", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", "127.0.0.1:8080", "HTTP listen address (host:port; port 0 picks a free port)")
		storeDir      = fs.String("store", "", "directory for the content-addressed report store (empty = in-memory only)")
		scenariosPath = fs.String("scenarios", "", "JSON scenario catalog served to all tenants (submissions may embed their own)")
		maxConcurrent = fs.Int("max-concurrent", 1, "jobs executing simultaneously (each still uses the full worker pool)")
		queueLimit    = fs.Int("queue-limit", 64, "pending jobs allowed per tenant before submissions are rejected")
		streamBuffer  = fs.Int("stream-buffer", 256, "per-subscriber event ring size (a slow subscriber drops its own oldest events)")
		workers       = fs.Int("workers", 0, "per-job simulation worker pool size (0 = all cores)")
		drainTimeout  = fs.Duration("drain-timeout", 30*time.Second, "how long a shutdown waits for running jobs before cancelling them")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errReported
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (the service takes jobs over HTTP, not the command line)", fs.Arg(0))
	}
	if err := checkPositiveDuration(fs, "drain-timeout", *drainTimeout); err != nil {
		return err
	}
	if *maxConcurrent < 1 {
		return fmt.Errorf("-max-concurrent %d, want >= 1", *maxConcurrent)
	}
	if *queueLimit < 1 {
		return fmt.Errorf("-queue-limit %d, want >= 1", *queueLimit)
	}
	catalog, err := loadCatalog(*scenariosPath)
	if err != nil {
		return err
	}

	srv, err := securadio.NewCampaignServer(securadio.ServiceConfig{
		MaxConcurrent: *maxConcurrent,
		QueueLimit:    *queueLimit,
		Workers:       *workers,
		StreamBuffer:  *streamBuffer,
		StoreDir:      *storeDir,
		Catalog:       catalog,
		Log:           os.Stderr,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address goes to stderr so scripts using port 0 can
	// discover the port without parsing logs.
	fmt.Fprintf(os.Stderr, "fleetsim: serving on %s\n", ln.Addr())

	hs := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "fleetsim: shutdown signal, draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)
	// Streams have all ended (every job is terminal), so Shutdown only
	// waits out idle keep-alive connections.
	if err := hs.Shutdown(dctx); err != nil {
		hs.Close()
	}
	if drainErr != nil {
		return fmt.Errorf("drain timed out; running jobs were cancelled: %w", drainErr)
	}
	fmt.Fprintln(os.Stderr, "fleetsim: drained cleanly")
	return nil
}

// Connection bounds for fleetsim serve: a client gets readHeaderTimeout
// to send its request headers and an idle keep-alive connection is closed
// after idleTimeout. There is deliberately no WriteTimeout, because an
// SSE event stream lives as long as its job.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the daemon's handler in an http.Server that bounds
// slow and idle clients.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// checkPositiveDuration rejects an explicitly-set non-positive duration
// flag: a zero or negative -drain-timeout/-lease-timeout would silently
// select a default (or an instant deadline), which is always a typo.
func checkPositiveDuration(fs *flag.FlagSet, name string, v time.Duration) error {
	explicit := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			explicit = true
		}
	})
	if explicit && v <= 0 {
		return fmt.Errorf("-%s %v, want a positive duration", name, v)
	}
	return nil
}

// loadCatalog parses -scenarios when given; a nil catalog means built-ins
// only.
func loadCatalog(path string) (*securadio.ScenarioFile, error) {
	if path == "" {
		return nil, nil
	}
	return securadio.LoadScenarioFile(path)
}

// lookupScenario resolves a name through the catalog (which shadows and
// falls back to the built-ins) or the built-in registry alone.
func lookupScenario(catalog *securadio.ScenarioFile, name string) (securadio.Scenario, bool) {
	if catalog != nil {
		return catalog.Lookup(name)
	}
	return securadio.LookupScenario(name)
}

func runList(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleetsim list", flag.ContinueOnError)
	scenariosPath := fs.String("scenarios", "", "also list scenarios/sweeps from a JSON catalog file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errReported
	}
	catalog, err := loadCatalog(*scenariosPath)
	if err != nil {
		return err
	}

	t := metrics.NewTable("built-in scenarios", "name", "proto", "n", "c", "t", "adversary", "description")
	for _, s := range securadio.Scenarios() {
		t.AddRow(s.Name, s.Proto, s.N, s.C, s.T, s.Adversary, s.Desc)
	}
	t.Render(out)
	if catalog != nil {
		ft := metrics.NewTable("scenarios from "+*scenariosPath, "name", "proto", "n", "c", "t", "adversary", "description")
		for _, s := range catalog.Scenarios {
			ft.AddRow(s.Name, s.Proto, s.N, s.C, s.T, s.Adversary, s.Desc)
		}
		if ft.Len() > 0 {
			fmt.Fprintln(out)
			ft.Render(out)
		}
		st := metrics.NewTable("sweeps from "+*scenariosPath, "name", "base", "cells", "runs/cell", "description")
		for _, sw := range catalog.Sweeps {
			cells := "?"
			if cs, err := sw.Cells(); err == nil {
				cells = strconv.Itoa(len(cs))
			}
			st.AddRow(sw.Name, sw.Base.Name, cells, sw.Runs, sw.Desc)
		}
		if st.Len() > 0 {
			fmt.Fprintln(out)
			st.Render(out)
		}
		at := metrics.NewTable("adaptive sweeps from "+*scenariosPath, "name", "base", "axis", "range", "runs/cell", "description")
		for _, as := range catalog.Adaptives {
			at.AddRow(as.Name, as.Base.Name, as.Axis, fmt.Sprintf("[%d, %d]", as.Min, as.Max), as.Runs, as.Desc)
		}
		if at.Len() > 0 {
			fmt.Fprintln(out)
			at.Render(out)
		}
	}
	fmt.Fprintf(out, "\nadversary strategies: %v\n", securadio.AdversaryStrategies())
	return nil
}

func runCampaign(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleetsim run", flag.ContinueOnError)
	var (
		campaign      = fs.String("campaign", "", "scenario name (see fleetsim list)")
		scenariosPath = fs.String("scenarios", "", "JSON scenario catalog extending the built-ins")
		runs          = fs.Int("runs", 500, "number of independent runs in the seed grid")
		seed          = fs.Int64("seed", 1, "campaign master seed")
		workers       = fs.Int("workers", 0, "worker pool size (0 = all cores)")
		format        = fs.String("format", "table", "report format: table | json | csv")
		outPath       = fs.String("out", "", "write the report to a file instead of stdout")
		timeout       = fs.Duration("timeout", 0, "abort the campaign after this duration (0 = none)")
		trans         = fs.String("transport", "mem", "radio transport backend: mem | udp (loopback sockets)")
		tLoss         = fs.Float64("transport-loss", 0, "udp: injected datagram-loss probability in [0, 1]")
		tWindow       = fs.Duration("transport-window", 0, "udp: receive-window cutoff (0 = default)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errReported
	}
	if *campaign == "" {
		return errors.New("missing -campaign (see fleetsim list)")
	}
	if err := checkPositiveDuration(fs, "timeout", *timeout); err != nil {
		return err
	}
	catalog, err := loadCatalog(*scenariosPath)
	if err != nil {
		return err
	}
	sc, ok := lookupScenario(catalog, *campaign)
	if !ok {
		return fmt.Errorf("unknown campaign %q (see fleetsim list)", *campaign)
	}
	switch *trans {
	case "mem":
		if *tLoss != 0 || *tWindow != 0 {
			return errors.New("-transport-loss and -transport-window require -transport udp")
		}
	case "udp":
		tr, terr := securadio.NewUDPTransport(securadio.UDPConfig{Loss: *tLoss, Window: *tWindow})
		if terr != nil {
			return terr
		}
		sc.Transport = tr
	default:
		return fmt.Errorf("unknown transport %q (want mem or udp)", *trans)
	}
	if err := checkFormat(*format); err != nil {
		return err
	}
	c := securadio.Campaign{Scenario: sc, Runs: *runs, Seed: *seed, Workers: *workers}
	if err := c.Validate(); err != nil {
		return err
	}
	w, file, err := openOut(out, *outPath)
	if err != nil {
		return err
	}
	if file != nil {
		defer file.Close()
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	agg, err := securadio.RunCampaign(ctx, c)
	if err != nil && agg == nil {
		return err
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim: campaign interrupted (%v); reporting %d completed runs\n", err, agg.Runs)
		err = errReported
	}
	return emitReport(*format, w, file, agg, err)
}

// report is the rendering surface shared by every deterministic fleet
// report (campaign aggregate, sweep matrix, adaptive curve, marginals).
type report interface {
	WriteTable(w io.Writer)
	WriteJSON(w io.Writer) error
	WriteCSV(w io.Writer)
}

// emitReport renders a report in the requested format and surfaces I/O
// failures. Track write failures: WriteTable/WriteCSV print through fmt
// and report nothing themselves, and a full disk must not exit 0.
func emitReport(format string, w io.Writer, file *os.File, r report, err error) error {
	tw := &trackedWriter{w: w}
	switch format {
	case "table":
		r.WriteTable(tw)
	case "json":
		if jerr := r.WriteJSON(tw); jerr != nil {
			return jerr
		}
	case "csv":
		r.WriteCSV(tw)
	}
	return finishReport(tw, file, err)
}

// splitInts parses a comma-separated axis flag ("20,32,64"); empty means
// no axis.
func splitInts(flagName, s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("-%s: bad value %q (want comma-separated integers)", flagName, p)
		}
		out = append(out, v)
	}
	return out, nil
}

// splitFloats parses a comma-separated fraction axis flag ("0,0.1,0.2");
// empty means no axis.
func splitFloats(flagName, s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: bad value %q (want comma-separated fractions)", flagName, p)
		}
		out = append(out, v)
	}
	return out, nil
}

// splitStrings parses a comma-separated string axis; empty means no axis.
func splitStrings(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// fabricFlags collects the distributed-sweep knobs of fleetsim sweep.
// Any of them being set routes the sweep through a fabric coordinator
// instead of the in-process executor.
type fabricFlags struct {
	exec       string
	listen     string
	checkpoint string
	resume     bool
	lease      time.Duration
	workers    int // -workers doubles as the subprocess/local session count
}

func (ff fabricFlags) active() bool {
	return ff.exec != "" || ff.listen != "" || ff.checkpoint != "" || ff.resume || ff.lease > 0
}

// open builds the coordinator the flags describe and attaches its
// workers; the caller must Close it. With neither -workers-exec nor
// -listen (checkpoint-only use), cells lease to local in-process
// sessions — one at a time by default, each cell's runs still fanning
// across all cores.
func (ff fabricFlags) open() (*securadio.Fabric, error) {
	co := securadio.NewFabric(securadio.FabricConfig{
		LeaseTimeout: ff.lease,
		Checkpoint:   ff.checkpoint,
		Resume:       ff.resume,
		Log:          os.Stderr,
	})
	attached := false
	if ff.exec != "" {
		argv := strings.Fields(ff.exec)
		if len(argv) == 1 && argv[0] == "self" {
			exe, err := os.Executable()
			if err != nil {
				co.Close()
				return nil, err
			}
			argv = []string{exe, "worker"}
		}
		n := ff.workers
		if n <= 0 {
			n = 2
		}
		if err := co.AttachExec(argv, n); err != nil {
			co.Close()
			return nil, err
		}
		attached = true
	}
	if ff.listen != "" {
		addr, err := co.ListenTCP(ff.listen)
		if err != nil {
			co.Close()
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "fleetsim: fabric listening on %s (start workers with: fleetsim worker -connect %s)\n", addr, addr)
		attached = true
	}
	if !attached {
		n := ff.workers
		if n <= 0 {
			n = 1
		}
		co.AttachLocal(n)
	}
	return co, nil
}

func runSweep(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleetsim sweep", flag.ContinueOnError)
	var (
		base          = fs.String("base", "", "base scenario name the grid derives from")
		sweepName     = fs.String("sweep", "", "named sweep (cartesian or adaptive) from the -scenarios catalog (instead of -base + axis flags)")
		scenariosPath = fs.String("scenarios", "", "JSON scenario catalog providing scenarios and sweeps")
		nAxis         = fs.String("n", "", "N axis: comma-separated node counts")
		cAxis         = fs.String("c", "", "C axis: comma-separated channel counts")
		tAxis         = fs.String("t", "", "T axis: comma-separated adversary budgets")
		pairsAxis     = fs.String("pairs", "", "Pairs axis: comma-separated AME pair counts")
		regimeAxis    = fs.String("regime", "", "Regime axis: comma-separated of auto|base|2t|2t2")
		advAxis       = fs.String("adv", "", "Adversary axis: comma-separated strategy names")
		emAxis        = fs.String("em", "", "EmRounds axis: comma-separated emulated round counts (secure-group)")
		churnAxis     = fs.String("churn", "", "Churn axis: comma-separated node-churn intensities in [0,1]")
		lossAxis      = fs.String("loss", "", "Loss axis: comma-separated channel-loss rates in [0,1]")
		adaptive      = fs.String("adaptive", "", "adaptive threshold search on one numeric axis (n|c|t|em) instead of a cartesian grid")
		minFlag       = fs.Int("min", 0, "adaptive: axis range lower bound (inclusive)")
		maxFlag       = fs.Int("max", 0, "adaptive: axis range upper bound (inclusive)")
		coarse        = fs.Int("coarse", 0, "adaptive: initial evenly-spaced grid size (0 = default)")
		resolution    = fs.Int("resolution", 0, "adaptive: stop once the threshold bracket is this narrow (0 = default 1)")
		budget        = fs.Int("budget", 0, "adaptive: total evaluated-point budget, coarse grid included (0 = default)")
		runs          = fs.Int("runs", 100, "runs per grid cell")
		seed          = fs.Int64("seed", 1, "sweep master seed")
		workers       = fs.Int("workers", 0, "worker pool size (0 = all cores); with -workers-exec, the subprocess count (0 = 2)")
		format        = fs.String("format", "table", "report format: table | json | csv")
		outPath       = fs.String("out", "", "write the report to a file instead of stdout")
		timeout       = fs.Duration("timeout", 0, "abort the sweep after this duration (0 = none)")
		workersExec   = fs.String("workers-exec", "", "distribute cells to subprocess workers running this command (\"self\" = this binary's worker subcommand)")
		listenAddr    = fs.String("listen", "", "distribute cells to remote workers that connect to this TCP address (see fleetsim worker -connect)")
		checkpoint    = fs.String("checkpoint", "", "journal completed cells to this file so a killed sweep can -resume")
		resume        = fs.Bool("resume", false, "replay the -checkpoint journal and run only the remaining cells")
		leaseTimeout  = fs.Duration("lease-timeout", 0, "re-issue a leased cell after this long without a result (0 = default 2m)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errReported
	}
	// Flags the user explicitly passed, as opposed to defaults: explicit
	// execution knobs must override a catalog sweep's values rather than
	// being silently ignored.
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if err := checkPositiveDuration(fs, "timeout", *timeout); err != nil {
		return err
	}
	if err := checkPositiveDuration(fs, "lease-timeout", *leaseTimeout); err != nil {
		return err
	}
	catalog, err := loadCatalog(*scenariosPath)
	if err != nil {
		return err
	}
	ff := fabricFlags{
		exec: *workersExec, listen: *listenAddr,
		checkpoint: *checkpoint, resume: *resume,
		lease: *leaseTimeout, workers: *workers,
	}
	if ff.resume && ff.checkpoint == "" {
		return errors.New("-resume requires -checkpoint (the journal to replay)")
	}

	// Resolve the work definition: exactly one of a cartesian sweep or an
	// adaptive search, from flags or from the catalog.
	var (
		sweep securadio.Sweep
		adapt *securadio.AdaptiveSweep
	)
	switch {
	case *adaptive != "":
		if *sweepName != "" {
			return errors.New("-adaptive and -sweep are mutually exclusive")
		}
		if *base == "" {
			return errors.New("-adaptive requires -base (the scenario the search derives from)")
		}
		for _, axis := range []string{"n", "c", "t", "pairs", "regime", "adv", "em", "churn", "loss"} {
			if explicit[axis] {
				return fmt.Errorf("-%s defines a cartesian grid axis and cannot combine with -adaptive", axis)
			}
		}
		if !explicit["min"] || !explicit["max"] {
			return errors.New("-adaptive requires -min and -max (the axis search range)")
		}
		sc, ok := lookupScenario(catalog, *base)
		if !ok {
			return fmt.Errorf("unknown base scenario %q (see fleetsim list)", *base)
		}
		adapt = &securadio.AdaptiveSweep{
			Base: sc, Axis: *adaptive,
			Min: *minFlag, Max: *maxFlag,
			Coarse: *coarse, Resolution: *resolution, MaxCells: *budget,
			Runs: *runs, Seed: *seed, Workers: *workers,
		}

	case *sweepName != "":
		if catalog == nil {
			return errors.New("-sweep requires -scenarios (sweeps are defined in catalog files)")
		}
		if explicit["base"] {
			return fmt.Errorf("-base and -sweep are mutually exclusive (catalog sweep %q defines its own base)", *sweepName)
		}
		for _, axis := range []string{"n", "c", "t", "pairs", "regime", "adv", "em", "churn", "loss"} {
			if explicit[axis] {
				return fmt.Errorf("-%s defines a -base grid axis and cannot reshape the catalog sweep %q", axis, *sweepName)
			}
		}
		for _, shape := range []string{"min", "max", "coarse", "resolution", "budget"} {
			if explicit[shape] {
				return fmt.Errorf("-%s shapes a -base adaptive search and cannot reshape the catalog sweep %q", shape, *sweepName)
			}
		}
		if sw, ok := catalog.LookupSweep(*sweepName); ok {
			sweep = sw
			// Execution knobs: an explicit flag wins over the catalog; the
			// catalog wins over the flag's default.
			if explicit["runs"] || sweep.Runs == 0 {
				sweep.Runs = *runs
			}
			if explicit["seed"] || sweep.Seed == 0 {
				sweep.Seed = *seed
			}
		} else if as, ok := catalog.LookupAdaptive(*sweepName); ok {
			if explicit["runs"] || as.Runs == 0 {
				as.Runs = *runs
			}
			if explicit["seed"] || as.Seed == 0 {
				as.Seed = *seed
			}
			adapt = &as
		} else {
			return fmt.Errorf("unknown sweep %q in %s (have: %s)", *sweepName, *scenariosPath, catalog.Names())
		}

	case *base != "":
		sc, ok := lookupScenario(catalog, *base)
		if !ok {
			return fmt.Errorf("unknown base scenario %q (see fleetsim list)", *base)
		}
		sweep = securadio.Sweep{Base: sc, Runs: *runs, Seed: *seed}
		if sweep.N, err = splitInts("n", *nAxis); err != nil {
			return err
		}
		if sweep.C, err = splitInts("c", *cAxis); err != nil {
			return err
		}
		if sweep.T, err = splitInts("t", *tAxis); err != nil {
			return err
		}
		if sweep.Pairs, err = splitInts("pairs", *pairsAxis); err != nil {
			return err
		}
		if sweep.EmRounds, err = splitInts("em", *emAxis); err != nil {
			return err
		}
		if sweep.Churn, err = splitFloats("churn", *churnAxis); err != nil {
			return err
		}
		if sweep.Loss, err = splitFloats("loss", *lossAxis); err != nil {
			return err
		}
		sweep.Adversary = splitStrings(*advAxis)
		for _, spell := range splitStrings(*regimeAxis) {
			// ParseRegime maps "" to auto for scenario files that omit the
			// field; on an axis flag an empty element is a typo (trailing
			// comma) that would silently widen the grid.
			if spell == "" {
				return errors.New("-regime: empty axis element (want comma-separated of auto|base|2t|2t2)")
			}
			r, rerr := securadio.ParseRegime(spell)
			if rerr != nil {
				return rerr
			}
			sweep.Regime = append(sweep.Regime, r)
		}
	default:
		return errors.New("missing -base (grid from flags) or -sweep (grid from a -scenarios catalog)")
	}
	// An explicit -workers overrides the catalog's setting; the flag's
	// default leaves a catalog value (or GOMAXPROCS) in charge.
	if explicit["workers"] {
		if adapt != nil {
			adapt.Workers = *workers
		} else {
			sweep.Workers = *workers
		}
	}

	if err := checkFormat(*format); err != nil {
		return err
	}
	if adapt != nil {
		err = adapt.Validate()
	} else {
		err = sweep.Validate()
	}
	if err != nil {
		return err
	}
	w, file, err := openOut(out, *outPath)
	if err != nil {
		return err
	}
	if file != nil {
		defer file.Close()
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var co *securadio.Fabric
	if ff.active() {
		co, err = ff.open()
		if err != nil {
			return err
		}
		defer co.Close()
	}

	if adapt != nil {
		var res *securadio.AdaptiveResult
		if co != nil {
			res, err = co.RunAdaptiveSweep(ctx, *adapt)
		} else {
			res, err = securadio.RunAdaptiveSweep(ctx, *adapt)
		}
		if err != nil && res == nil {
			return err
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetsim: adaptive sweep interrupted (%v); reporting completed points\n", err)
			err = errReported
		}
		return emitReport(*format, w, file, res, err)
	}

	var matrix *securadio.SweepResult
	if co != nil {
		matrix, err = co.RunSweep(ctx, sweep)
	} else {
		matrix, err = securadio.RunSweep(ctx, sweep)
	}
	if err != nil && matrix == nil {
		return err
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetsim: sweep interrupted (%v); reporting completed runs\n", err)
		err = errReported
	}
	return emitReport(*format, w, file, matrix, err)
}

// runAnalyze loads a sweep matrix report from disk and emits its per-axis
// marginal summaries — the threshold curves of the paper, computed from
// the matrix instead of eyeballed off it.
func runAnalyze(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleetsim analyze", flag.ContinueOnError)
	var (
		inPath  = fs.String("in", "", "sweep matrix JSON (as written by fleetsim sweep -format json)")
		format  = fs.String("format", "table", "report format: table | json | csv")
		outPath = fs.String("out", "", "write the report to a file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errReported
	}
	if *inPath == "" {
		return errors.New("missing -in (a sweep JSON report)")
	}
	if err := checkFormat(*format); err != nil {
		return err
	}
	matrix, err := securadio.LoadSweepResult(*inPath)
	if err != nil {
		return err
	}
	marginals, err := securadio.Marginals(matrix)
	if err != nil {
		return err
	}
	w, file, err := openOut(out, *outPath)
	if err != nil {
		return err
	}
	if file != nil {
		defer file.Close()
	}
	return emitReport(*format, w, file, marginals, nil)
}

// runDiff compares two sweep matrix reports and exits non-zero when any
// cell's delivery rate regressed beyond the threshold (or cells vanished /
// stopped being runnable), so CI can gate cross-PR trajectories on it.
func runDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleetsim diff", flag.ContinueOnError)
	var (
		threshold = fs.Float64("threshold", 0, "tolerated per-cell delivery-rate drop (0 = any drop regresses)")
		format    = fs.String("format", "table", "report format: table | json | csv")
		outPath   = fs.String("out", "", "write the report to a file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errReported
	}
	if fs.NArg() != 2 {
		return errors.New("usage: fleetsim diff [flags] old-sweep.json new-sweep.json")
	}
	if *threshold < 0 {
		return fmt.Errorf("-threshold %g is negative (it is a tolerated delivery-rate drop, >= 0)", *threshold)
	}
	if err := checkFormat(*format); err != nil {
		return err
	}
	older, err := securadio.LoadSweepResult(fs.Arg(0))
	if err != nil {
		return err
	}
	newer, err := securadio.LoadSweepResult(fs.Arg(1))
	if err != nil {
		return err
	}
	d := securadio.DiffSweeps(older, newer, securadio.DiffOptions{Threshold: *threshold})
	w, file, err := openOut(out, *outPath)
	if err != nil {
		return err
	}
	if file != nil {
		defer file.Close()
	}
	if err := emitReport(*format, w, file, d, nil); err != nil {
		return err
	}
	if d.Regressed() {
		// The report already names the regressed cells; exit non-zero so a
		// CI gate fails without parsing the output.
		return fmt.Errorf("%d regression(s) beyond threshold %g", d.Regressions, *threshold)
	}
	return nil
}

// checkFormat rejects unknown report formats before a campaign runs: a
// typo must not cost a multi-minute run (or truncate an existing -out
// file).
func checkFormat(format string) error {
	switch format {
	case "table", "json", "csv":
		return nil
	default:
		return fmt.Errorf("unknown format %q (want table, json or csv)", format)
	}
}

// openOut resolves the report destination before the campaign runs: an
// unwritable -out path must not cost a multi-minute run. The returned
// file (nil for stdout) carries a backstop Close for error paths; the
// success path closes explicitly through finishReport so flush errors are
// observed.
func openOut(out io.Writer, path string) (io.Writer, *os.File, error) {
	if path == "" {
		return out, nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f, nil
}

// finishReport surfaces report I/O failures: write errors tracked by tw,
// then the -out file's Close (the harmless second Close from the deferred
// backstop just errors and is ignored).
func finishReport(tw *trackedWriter, file *os.File, err error) error {
	if tw.err != nil {
		return fmt.Errorf("writing report: %w", tw.err)
	}
	if file != nil {
		if cerr := file.Close(); cerr != nil {
			return cerr
		}
	}
	return err
}

// trackedWriter remembers the first write error so report emission paths
// without error returns still surface I/O failures.
type trackedWriter struct {
	w   io.Writer
	err error
}

func (t *trackedWriter) Write(p []byte) (int, error) {
	if t.err != nil {
		return 0, t.err
	}
	n, err := t.w.Write(p)
	if err != nil {
		t.err = err
	}
	return n, err
}
