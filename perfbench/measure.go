package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is the number of samples that must lie above a percentile
// before it is reported: a tail estimate resting on fewer samples moves
// with every burst of host noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie strictly above its rank. Percentiles that
// fail the test are not reported.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 || q <= 0 || q >= 1 {
		return 0, false
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= minBeyond
}

// median is the plain median of xs (mean of the middle two for an even
// count); it is used for repeated measurements of identical work, where
// the median discards the passes a noise burst landed on.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB is this process's peak resident set size. ru_maxrss is a
// per-process maximum, which is why every workload runs in its own
// process.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the enclosing span's ID (0 at the top).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its ID, or 0 on a nil tracer.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	return t.add(name, parent, op, t.now(), -1)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a finished span, for intervals measured elsewhere (a fleet
// run's Elapsed, a job's server-side queue wait).
func (t *tracer) add(name string, parent, op int, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// durations returns the durations in milliseconds of the named spans.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes fills every span's Self: its duration minus the part of that
// interval its children cover.
func selfTimes(spans []span) {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// layerTime is one span name's share of the traced window.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// write stores the spans and a per-name summary as JSON at path.
func (t *tracer) write(path string) ([]layerTime, error) {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	selfTimes(spans)
	byName := map[string]*layerTime{}
	var names []string
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			names = append(names, s.Name)
		}
		lt.Count++
		lt.TotalMS += float64(s.End-s.Start) / 1e6
		lt.SelfMS += float64(s.Self) / 1e6
	}
	summary := make([]layerTime, 0, len(names))
	for _, n := range names {
		summary = append(summary, *byName[n])
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"layers": summary, "spans": spans}); err != nil {
		f.Close()
		return nil, err
	}
	return summary, f.Close()
}

// runtimeWindow reads runtime/metrics and rusage over one timed window.
type runtimeWindow struct {
	start    []metrics.Sample
	wall     time.Time
	cpu      time.Duration
	stop     chan struct{}
	done     chan struct{}
	peakGoro int
}

var windowMetrics = []string{
	"/sched/latencies:seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(windowMetrics))
	for i, name := range windowMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// beginWindow starts a window and a sampler goroutine that tracks the
// goroutine count; finish stops the sampler and waits for it.
func beginWindow() *runtimeWindow {
	w := &runtimeWindow{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := runtime.NumGoroutine(); n > w.peakGoro {
				w.peakGoro = n
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	w.start = readMetrics()
	w.wall = time.Now()
	w.cpu = cpuTime()
	return w
}

// finish closes the window and returns the runtime layer's metrics for
// ops operations.
func (w *runtimeWindow) finish(ops int) map[string]float64 {
	wall := time.Since(w.wall)
	cpu := cpuTime() - w.cpu
	end := readMetrics()
	close(w.stop)
	<-w.done

	lat := deltaHist(w.start[0].Value.Float64Histogram(), end[0].Value.Float64Histogram())
	perOp := func(i int) float64 {
		if ops == 0 {
			return 0
		}
		return float64(end[i].Value.Uint64()-w.start[i].Value.Uint64()) / float64(ops)
	}
	gc := end[3].Value.Float64() - w.start[3].Value.Float64()
	total := end[4].Value.Float64() - w.start[4].Value.Float64()
	gcFrac := 0.0
	if total > 0 {
		gcFrac = gc / total
	}
	return map[string]float64{
		"runtime.sched_latency_p50_us": histQuantile(lat, 0.50) * 1e6,
		"runtime.sched_latency_p99_us": histQuantile(lat, 0.99) * 1e6,
		"runtime.goroutines_peak":      float64(w.peakGoro),
		"runtime.cpu_util":             cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0))),
		"runtime.allocs_per_op":        perOp(1),
		"runtime.bytes_per_op":         perOp(2),
		"runtime.gc_cpu_frac":          gcFrac,
	}
}

type hist struct {
	counts  []uint64
	buckets []float64
}

func deltaHist(a, b *metrics.Float64Histogram) hist {
	h := hist{counts: make([]uint64, len(b.Counts)), buckets: b.Buckets}
	for i := range b.Counts {
		h.counts[i] = b.Counts[i] - a.Counts[i]
	}
	return h
}

// histQuantile returns the upper bound of the bucket holding the
// q-quantile (the lower bound for the open-ended last bucket).
func histQuantile(h hist, q float64) float64 {
	var total uint64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		if acc >= target {
			if hi := h.buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.buckets[i]
		}
	}
	return h.buckets[len(h.buckets)-1]
}
