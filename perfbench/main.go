// Command perfbench is the repository benchmark. One invocation runs one
// workload in its own process, checks every op's output, and prints one
// JSON result as the last line of standard output:
//
//	perfbench --workload fame-fleet --seed 1 --seconds 45 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics instead: it repeats the workload untraced and then
// traced (spans and a CPU profile), runs the layer probes, and writes
// spans and profile under --out. -record rewrites digests.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"securadio"
)

// processStart is taken during package initialisation, before main, so
// the first set-up repetition includes the program's start-up.
var processStart = time.Now()

// setupReps is how many times an untraced run sets up; setup_s is their
// median. The first repetition precedes the measured window and the rest
// are spread evenly over it, between passes, so that one burst of host
// noise can reach only one or two of them.
const setupReps = 15

func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

// endToEnd and perLayer name the metrics of untraced and traced runs
// and give their units; BENCHMARK.json declares the same lists.
var (
	endToEnd = [][2]string{
		{"ops_per_s", "1/s"},
		{"node_rounds_per_s", "1/s"},
		{"peak_rss_mb", "MB"},
		{"setup_s", "s"},
	}
	perLayer = [][2]string{
		{"radio.ns_per_node_round", "ns"},
		{"radio.wide_ns_per_node_round", "ns"},
		{"radio.rounds_per_op", "count"},
		{"runtime.sched_latency_p50_us", "us"},
		{"runtime.sched_latency_p99_us", "us"},
		{"runtime.goroutines_peak", "count"},
		{"runtime.cpu_util", "ratio"},
		{"runtime.allocs_per_op", "count"},
		{"runtime.bytes_per_op", "B"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"core.exchange_ms", "ms"},
		{"wcrypto.dh_us", "us"},
		{"runner.groupkey_ms", "ms"},
		{"secure.channel_ms", "ms"},
		{"groupkey.setup_rounds", "count"},
		{"secure.key_holders", "count"},
		{"fleet.pool_busy_frac", "ratio"},
		{"fleet.overhead_ms_per_run", "ms"},
		{"fleet.run_ms", "ms"},
		{"fleet.diverged_run_frac", "ratio"},
		{"service.submit_ms", "ms"},
		{"service.queue_ms", "ms"},
		{"service.stream_ms", "ms"},
		{"service.report_ms", "ms"},
		{"service.events_per_job", "count"},
		{"service.dropped_events_per_job", "count"},
		{"service.job_ms", "ms"},
		{"bench.trace_overhead_frac", "ratio"},
	}
)

// withUnits attaches units to the measured values, which must be
// exactly the metrics defs declares; anything else is a bug.
func withUnits(defs [][2]string, vals map[string]float64) map[string]metric {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d[0]]
		if !ok {
			panic("perfbench: metric " + d[0] + " was not measured")
		}
		m[d[0]] = metric{v, d[1]}
	}
	if len(vals) != len(defs) {
		panic(fmt.Sprintf("perfbench: %d metrics measured, %d declared", len(vals), len(defs)))
	}
	return m
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed; selects the seed grid")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and CPU profiles of traced runs")
	record := flag.String("record", "", "write the reference digests of the recorded seeds to this file and exit")
	flag.Parse()

	if *record != "" {
		if err := writeDigests(*record); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}", workloadNames()))
	}
	res, err := run(w, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

func run(w workload, seed int64, seconds float64, traced bool, outDir string) (*result, error) {
	d, err := loadDigests()
	if err != nil {
		return nil, err
	}

	// Each set-up builds the inputs and runs the warm-up ops. The first
	// one, timed from program start, gives the instance the passes use.
	inst, err := w.open(seed, d)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer inst.close()
	setups := []float64{time.Since(processStart).Seconds()}
	logf("%s seed=%d GOMAXPROCS=%d", w.name, seed, gomaxprocs())

	if traced {
		return runTraced(w, inst, seed, seconds, outDir, d)
	}
	var setupErr error
	win := measure(inst, seconds, nil, setupReps-1, func() {
		start := time.Now()
		again, err := w.open(seed, d)
		if err != nil {
			setupErr = err
			return
		}
		setups = append(setups, time.Since(start).Seconds())
		again.close()
	})
	if setupErr != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, setupErr)
	}
	logf("%s: set-up repetitions %v s", w.name, setups)
	win.report(w.name, w.name, seed, d)
	return &result{
		Correct:   win.failed() == 0,
		Attempted: win.ops(),
		Failed:    win.failed(),
		Metrics: withUnits(endToEnd, map[string]float64{
			"ops_per_s":         win.opsPerS(),
			"node_rounds_per_s": win.nodeRoundsPerS(),
			"peak_rss_mb":       peakRSSMB(),
			"setup_s":           median(setups),
		}),
	}, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// window is the passes of one timed stretch.
type window []passResult

// measure runs whole passes until seconds have elapsed (at least one).
// It also calls between n times: after the first pass to end past each
// of n points spread evenly over the window, and at its end for any
// point a long pass skipped. Those calls lie outside every pass's timing.
func measure(inst instance, seconds float64, tr *tracer, n int, between func()) window {
	length := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var w window
	done := 0
	for len(w) == 0 || time.Since(start) < length {
		w = append(w, inst.pass(tr))
		if done < n && time.Since(start) >= length*time.Duration(done+1)/time.Duration(n+1) {
			between()
			done++
		}
	}
	for ; done < n; done++ {
		between()
	}
	return w
}

func (w window) ops() (n int) {
	for _, p := range w {
		n += p.ops
	}
	return n
}

func (w window) failed() (n int) {
	for _, p := range w {
		n += p.failed
	}
	return n
}

// opsPerS and nodeRoundsPerS are medians over passes: every pass does
// the same work, so the median is the rate of an undisturbed pass.
func (w window) opsPerS() float64 {
	return w.rate(func(p passResult) float64 { return float64(p.ops) })
}

func (w window) nodeRoundsPerS() float64 {
	return w.rate(func(p passResult) float64 { return float64(p.nodeRounds) })
}

func (w window) rate(work func(passResult) float64) float64 {
	var r []float64
	for _, p := range w {
		r = append(r, work(p)/p.wall.Seconds())
	}
	return median(r)
}

func (w window) latencies() []float64 {
	var l []float64
	for _, p := range w {
		l = append(l, p.latMS...)
	}
	return l
}

// report logs what the result line does not carry: sample counts, the
// tail percentiles that have enough samples beyond them, gate failures,
// and the digests of an unrecorded seed so two commits can be compared.
func (w window) report(label, name string, seed int64, d recorded) {
	lat := w.latencies()
	tails := []string{"no per-op latency (untimed runs)"}
	if len(lat) > 0 {
		tails = []string{fmt.Sprintf("%d latency samples: p50=%.3fms", len(lat), median(lat))}
	}
	for _, q := range []float64{0.95, 0.99} {
		if v, ok := percentile(lat, q); ok {
			tails = append(tails, fmt.Sprintf("p%g=%.3fms", q*100, v))
		}
	}
	diverged := 0
	for _, p := range w {
		diverged += p.diverged
	}
	logf("%s: %d passes, %d ops, %d failed, %d diverged (whp); %s",
		label, len(w), w.ops(), w.failed(), diverged, strings.Join(tails, " "))
	rates := make([]string, len(w))
	for i, p := range w {
		rates[i] = fmt.Sprintf("%.4g", float64(p.ops)/p.wall.Seconds())
	}
	logf("%s: ops/s by pass: %s", label, strings.Join(rates, " "))
	for _, p := range w {
		if p.err != nil {
			logf("%s: gate: %v", label, p.err)
		}
	}
	if len(w[0].digests) > 0 && d.lookup(name, seed) == nil {
		logf("%s: seed %d is not recorded; pass digests %s", label, seed, digest([]byte(strings.Join(w[0].digests, "\n"))))
	}
}

// runTraced is the --trace 1 run: the workload untraced (runtime
// metrics), then traced (spans, CPU profile), then the layer probes.
func runTraced(w workload, inst instance, seed int64, seconds float64, outDir string, d recorded) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	half := seconds / 2
	tr := newTracer()
	start := tr.now()
	rw := beginWindow()
	base := measure(inst, half, nil, 0, nil)
	rt := rw.finish(base.ops())
	tr.add("runtime.window", 0, 0, start, tr.now())

	prof, err := os.Create(filepath.Join(outDir, w.name+".cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	traced := measure(inst, half, tr, 0, nil)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	base.report(w.name+" untraced", w.name, seed, d)
	traced.report(w.name+" traced", w.name, seed, d)

	m := rt
	put := func(name string, v float64) { m[name] = v }
	put("bench.trace_overhead_frac", base.opsPerS()/traced.opsPerS()-1)
	var rounds int64
	for _, p := range base {
		rounds += p.rounds
	}
	put("radio.rounds_per_op", float64(rounds)/float64(base.ops()))

	// A probe's failure is a failed correctness check, so it ends the run.
	sc, _ := securadio.LookupScenario(w.scenario)
	v, err := probeRadio(tr, sc.N, sc.C, sc.T)
	if err != nil {
		return nil, err
	}
	put("radio.ns_per_node_round", v)
	// The fame-wide shape (C > 64) is the engine's sparse resolution path,
	// which no workload's own runs reach.
	wide, _ := securadio.LookupScenario("fame-wide")
	if v, err = probeRadio(tr, wide.N, wide.C, wide.T); err != nil {
		return nil, err
	}
	put("radio.wide_ns_per_node_round", v)
	if v, err = probeExchange(tr, seed); err != nil {
		return nil, err
	}
	put("core.exchange_ms", v)
	if v, err = probeDH(tr, seed); err != nil {
		return nil, err
	}
	put("wcrypto.dh_us", v)
	sl, err := probeSecure(tr, seed)
	if err != nil {
		return nil, err
	}
	put("runner.groupkey_ms", sl.groupKeyMS)
	put("secure.channel_ms", sl.channelMS)
	put("groupkey.setup_rounds", sl.setupRounds)
	put("secure.key_holders", sl.keyHolders)

	// Fleet and service figures come from the workload's own traced window
	// when it drives that layer, and from one traced probe pass otherwise.
	fleetWin, svcWin := traced, traced
	if w.name != "fame-fleet" {
		if fleetWin, err = probePass(tr, "fame-fleet", seed, d); err != nil {
			return nil, err
		}
	}
	if w.name != "service-live" {
		if svcWin, err = probePass(tr, "service-live", seed, d); err != nil {
			return nil, err
		}
	}
	busy, capacity := 0.0, 0.0
	for _, p := range fleetWin {
		busy += p.busy.Seconds()
		capacity += p.wall.Seconds() * float64(p.workers)
	}
	diverged := 0
	for _, p := range fleetWin {
		diverged += p.diverged
	}
	put("fleet.diverged_run_frac", float64(diverged)/float64(fleetWin.ops()))
	put("fleet.pool_busy_frac", busy/capacity)
	put("fleet.overhead_ms_per_run", (capacity-busy)*1e3/float64(fleetWin.ops()))
	put("fleet.run_ms", median(tr.durations("fleet.run")))
	for _, s := range []string{"job", "submit", "queue", "stream", "report"} {
		put("service."+s+"_ms", median(tr.durations("service."+s)))
	}
	events, dropped := 0, 0
	for _, p := range svcWin {
		events += p.events
		dropped += p.dropped
	}
	put("service.events_per_job", float64(events)/float64(svcWin.ops()))
	put("service.dropped_events_per_job", float64(dropped)/float64(svcWin.ops()))

	summary, err := tr.write(filepath.Join(outDir, w.name+".spans.json"))
	if err != nil {
		return nil, err
	}
	sort.Slice(summary, func(i, j int) bool { return summary[i].SelfMS > summary[j].SelfMS })
	for _, lt := range summary {
		logf("span %-20s count=%-6d total=%10.1fms self=%10.1fms", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
	}
	logf("tracing overhead %.1f%% (untraced %.2f ops/s, traced %.2f ops/s)",
		100*m["bench.trace_overhead_frac"], base.opsPerS(), traced.opsPerS())

	all := append(base, traced...)
	return &result{
		Correct:   all.failed() == 0,
		Attempted: all.ops(),
		Failed:    all.failed(),
		Metrics:   withUnits(perLayer, m),
	}, nil
}

// probePass runs one traced pass of another workload's instance, for a
// layer the current workload does not drive itself.
func probePass(tr *tracer, name string, seed int64, d recorded) (window, error) {
	w, _ := lookupWorkload(name)
	inst, err := w.open(seed, d)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	p := inst.pass(tr)
	if p.err != nil {
		return nil, fmt.Errorf("%s probe pass: %w", name, p.err)
	}
	return window{p}, nil
}
