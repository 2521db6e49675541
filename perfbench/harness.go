package main

// The measuring harness shared by every workload: control calls timed
// around the public function, per-round CPU time, telemetry and
// allocator deltas across the timed phase, and the in-memory span log
// of a traced run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"flexnet"
)

// metric is one named, unit-carrying result value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// span is one traced interval: a round, a control call, a traffic
// segment or a check. Control calls carry their own trace ID; a span's
// parent is the round that issued it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Kind   string `json:"kind"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// harness carries one workload run's measurements.
type harness struct {
	n      *flexnet.Network
	traced bool
	t0     time.Time

	// calls holds wall latencies in ms by call kind; all and allCPU hold
	// every call's wall latency and process CPU time in ms, in issue
	// order.
	calls  map[string][]float64
	all    []float64
	allCPU []float64
	// writes counts mutating control calls.
	writes    int
	callsFail uint64
	// failures counts failed correctness checks; problems keeps the
	// first few messages.
	failures int
	problems []string

	// layers holds the per-layer counts of the timed phase.
	layers map[string]metric

	// prof is the CPU profile of a traced run's timed phase.
	prof bytes.Buffer

	spans    []span
	round    int // current round span ID (0 outside rounds)
	traceSeq int
}

func newHarness(traced bool) *harness {
	return &harness{traced: traced, t0: time.Now(), calls: map[string][]float64{}}
}

// failf records a failed correctness check.
func (h *harness) failf(format string, args ...any) {
	h.failures++
	if len(h.problems) < 20 {
		h.problems = append(h.problems, fmt.Sprintf(format, args...))
	}
}

// since is nanoseconds since the run started (the span clock).
func (h *harness) since() int64 { return int64(time.Since(h.t0)) }

// addSpan records a finished span when tracing.
func (h *harness) addSpan(kind, trace string, parent int, start int64) {
	if h.traced {
		h.spans = append(h.spans, span{ID: len(h.spans) + 1, Parent: parent, Trace: trace, Kind: kind, Start: start, End: h.since()})
	}
}

// beginRound opens a round span; endRound closes it.
func (h *harness) beginRound() {
	if h.traced {
		h.spans = append(h.spans, span{ID: len(h.spans) + 1, Kind: "round", Start: h.since()})
		h.round = len(h.spans)
	}
}

func (h *harness) endRound() {
	if h.traced && h.round > 0 {
		h.spans[h.round-1].End = h.since()
		h.round = 0
	}
}

// traceSpan times fn as a non-call span under the current round (a
// traffic segment or a check).
func (h *harness) traceSpan(kind string, fn func()) {
	start := h.since()
	fn()
	h.addSpan(kind, "", h.round, start)
}

// call times one control call around the public function and records
// it under kind. write marks mutating calls. A returned error counts as
// a failed call.
func (h *harness) call(kind string, write bool, fn func() error) error {
	if write {
		h.writes++
	}
	start := h.since()
	t, c := time.Now(), cpuSeconds()
	err := fn()
	ms := float64(time.Since(t)) / 1e6
	h.calls[kind] = append(h.calls[kind], ms)
	h.all = append(h.all, ms)
	h.allCPU = append(h.allCPU, (cpuSeconds()-c)*1e3)
	if h.traced {
		h.traceSeq++
		h.addSpan(kind, fmt.Sprintf("op-%06d", h.traceSeq), h.round, start)
	}
	if err != nil {
		h.callsFail++
		h.failf("%s call failed: %v", kind, err)
	}
	return err
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// counters maps every telemetry counter's name to its value.
func counters(snap flexnet.TelemetrySnapshot) map[string]uint64 {
	out := make(map[string]uint64, len(snap.Counters))
	for _, c := range snap.Counters {
		out[c.Name] = uint64(c.Value)
	}
	return out
}

// sumWhere adds the deltas between two counter maps over names with the
// given prefix and suffix.
func sumWhere(before, after map[string]uint64, prefix, suffix string) uint64 {
	var total uint64
	for name, v := range after {
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			total += v - before[name]
		}
	}
	return total
}

// ratio divides, reading 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median is the nearest-rank median of samples.
func median(samples []float64) float64 { return nearestRank(samples, 0.5) }

// timed is what a workload's timed phase reports to the harness.
type timed struct {
	wall float64 // seconds of the timed phase
	// Per round: process CPU seconds, and packets delivered per CPU
	// second.
	roundCPU  []float64
	roundDPC  []float64
	delivered uint64 // packets delivered to hosts in the timed phase
	sent      uint64 // packets sent in the timed phase
	before    map[string]uint64
	after     map[string]uint64
	memBefore runtime.MemStats
	memAfter  runtime.MemStats
}

// endToEnd fills the end-to-end metrics from a finished run. They are
// CPU-time figures, medians over set-ups, rounds or calls, and the heap
// figure: wall-clock times do not repeat on a machine whose hypervisor
// steals CPU time in bursts (README.md), so they are reported by
// wallClock and as wall.setup_s instead.
func (h *harness) endToEnd(setupCPU []float64, t *timed, heapMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":             {median(setupCPU), "s"},
		"cpu_s":               {median(t.roundCPU), "s"},
		"delivered_per_cpu_s": {median(t.roundDPC), "1/s"},
		"op_cpu_p50_ms":       {nearestRank(h.allCPU, 0.5), "ms"},
		"op_cpu_p90_ms":       {nearestRank(h.allCPU, 0.9), "ms"},
		"heap_live_mb":        {heapMB, "MB"},
	}
}

// wallClock is the timed phase's wall-clock view: packets delivered and
// control calls completed per wall second, and the calls' wall
// latencies.
func (h *harness) wallClock(t *timed) map[string]metric {
	return map[string]metric{
		"wall.delivered_pps": {ratio(float64(t.delivered), t.wall), "1/s"},
		"wall.ops_per_s":     {ratio(float64(len(h.all)), t.wall), "1/s"},
		"wall.op_p50_ms":     {nearestRank(h.all, 0.5), "ms"},
		"wall.op_p90_ms":     {nearestRank(h.all, 0.9), "ms"},
	}
}

// callKinds are the control-call kinds reported as call.<kind>_p50_ms.
var callKinds = []string{"deploy", "update", "scale", "remove", "migrate", "spec_apply", "spec_diff", "dry_run", "spec_dry_run", "failover", "route"}

// perLayer fills the counts and ratios of the traced run from telemetry
// and allocator deltas over the timed phase. CPU shares come from the
// profile separately.
func (h *harness) perLayer(t *timed) map[string]metric {
	b, a := t.before, t.after
	d := func(name string) float64 { return float64(a[name] - b[name]) }
	hops := float64(sumWhere(b, a, "dev.", ".packets_processed"))
	lookups := float64(sumWhere(b, a, "dev.", ".table_lookups"))
	hits := float64(sumWhere(b, a, "flowcache.", ".hits"))
	misses := float64(sumWhere(b, a, "flowcache.", ".misses"))
	writes := float64(h.writes)
	calls := float64(len(h.all))
	delivered := float64(t.delivered)
	m := map[string]metric{
		"netsim.avg_batch":                     {ratio(d("fabric.batch.events"), d("fabric.batches")), "events"},
		"flexbpf.lookups_per_pkt":              {ratio(lookups, hops), "count"},
		"flowcache.hit_ratio":                  {ratio(hits, hits+misses), "ratio"},
		"flowcache.invalidations":              {float64(sumWhere(b, a, "flowcache.", ".invalidations")), "count"},
		"dataplane.hops_per_pkt":               {ratio(hops, float64(t.sent)), "count"},
		"go.allocs_per_pkt":                    {ratio(float64(t.memAfter.Mallocs-t.memBefore.Mallocs), delivered), "count"},
		"go.bytes_per_pkt":                     {ratio(float64(t.memAfter.TotalAlloc-t.memBefore.TotalAlloc), delivered), "B"},
		"go.gc_cycles":                         {float64((t.memAfter.NumGC - t.memAfter.NumForcedGC) - (t.memBefore.NumGC - t.memBefore.NumForcedGC)), "count"},
		"placement.targets_scanned_per_op":     {ratio(d("ctl.placement.targets_scanned"), writes), "count"},
		"placement.segments_recompiled_per_op": {ratio(d("ctl.placement.segments_recompiled"), writes), "count"},
		"linkcache.hit_ratio":                  {ratio(d("linkcache.hits"), d("linkcache.hits")+d("linkcache.misses")), "ratio"},
		"plan.executed_per_op":                 {ratio(d("plan.executed"), calls), "count"},
		"routing.entries_recomputed_per_op":    {ratio(d("fabric.routes.recomputed_entries"), calls), "count"},
		"audit.records_per_op":                 {ratio(d("ctl.audit.records"), calls), "count"},
		"ha.syncs_per_op":                      {ratio(d("ha.syncs"), calls), "count"},
	}
	for _, k := range callKinds {
		m["call."+k+"_p50_ms"] = metric{nearestRank(h.calls[k], 0.5), "ms"}
	}
	return m
}

// outDir is where a run leaves its spans and profiles: the build
// directory inside the checkout.
func outDir() string {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	return filepath.Join(dir, "perfbench")
}

// writeSpans writes the span log of a traced run as JSON, one span per
// line, ordered by start.
func (h *harness) writeSpans(path string) error {
	sort.SliceStable(h.spans, func(i, j int) bool { return h.spans[i].Start < h.spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range h.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// workloadRun is a built workload the harness can measure.
type workloadRun interface {
	network() *flexnet.Network
	traffic() *sink
	// round runs round i of the closed control loop under traffic.
	round(h *harness, i int)
	// finalChecks checks the end state after traffic has drained.
	finalChecks(h *harness)
}

const (
	// setupRepeats is how many times a run builds its set-up; the
	// median process CPU time is reported and the last set-up is
	// measured.
	setupRepeats = 15
	// warmup is the simulated traffic time a set-up runs before timing,
	// enough for every flow to have crossed the fabric repeatedly.
	warmup = 50 * time.Millisecond
	// heapRound is the round after which the live heap is measured, so
	// the figure stands for a fixed amount of work rather than for
	// however many rounds fit in the run.
	heapRound = 8
	// drain lets in-flight packets land before the delivery check.
	drain = 10 * time.Millisecond
)

// run measures a workload: set-up several times (the median CPU time
// is reported, the last set-up is measured), then whole rounds until the
// timed phase has lasted seconds, then drain and check.
func (h *harness) run(seconds float64, setup func() (workloadRun, error)) (*result, map[string]metric, error) {
	var setupCPU, setupWall []float64
	var w workloadRun
	for i := 0; i < setupRepeats; i++ {
		w = nil
		runtime.GC()
		t, c := time.Now(), cpuSeconds()
		var err error
		if w, err = setup(); err != nil {
			return nil, nil, err
		}
		setupCPU = append(setupCPU, cpuSeconds()-c)
		setupWall = append(setupWall, time.Since(t).Seconds())
	}
	n, s := w.network(), w.traffic()
	h.n = n
	h.failures, h.problems = 0, nil // discarded set-ups do not count

	t := &timed{before: counters(n.Stats())}
	runtime.ReadMemStats(&t.memBefore)
	sent0, deliv0 := s.sent(), s.delivered
	heapMB := -1.0
	if h.traced {
		// StartCPUProfile asks for its default rate and warns on stderr
		// that the rate set here stays in force.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&h.prof); err != nil {
			return nil, nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	start := time.Now()
	for i := 0; ; i++ {
		c0, d0 := cpuSeconds(), s.delivered
		h.beginRound()
		w.round(h, i)
		h.endRound()
		cpu := cpuSeconds() - c0
		t.roundCPU = append(t.roundCPU, cpu)
		t.roundDPC = append(t.roundDPC, ratio(float64(s.delivered-d0), cpu))
		done := time.Since(start).Seconds() >= seconds
		if i+1 == heapRound || (done && heapMB < 0) {
			// A forced collection, outside the timing.
			paused := time.Now()
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapMB = float64(ms.HeapAlloc) / 1e6
			start = start.Add(time.Since(paused))
		}
		if done {
			break
		}
	}
	t.wall = time.Since(start).Seconds()
	if h.traced {
		pprof.StopCPUProfile()
	}
	t.sent, t.delivered = s.sent()-sent0, s.delivered-deliv0
	runtime.ReadMemStats(&t.memAfter)
	t.after = counters(n.Stats())
	h.layers = h.perLayer(t)
	for name, m := range h.wallClock(t) {
		h.layers[name] = m
	}
	h.layers["wall.setup_s"] = metric{median(setupWall), "s"}

	// Stop the schedule, let in-flight packets land, then check.
	s.stop()
	n.RunFor(drain)
	s.checkAll()
	if d := n.InfrastructureDrops(); d != 0 {
		h.failf("%d infrastructure drops", d)
	}
	w.finalChecks(h)
	drops := n.InfrastructureDrops()
	fmt.Printf("# attempted: %d control calls, %d packets; failed: %d control calls, %d packets (infrastructure drops)\n",
		len(h.all), s.sent(), h.callsFail, drops)
	res := &result{
		Attempted: uint64(len(h.all)) + s.sent(),
		Failed:    h.callsFail + drops,
	}
	return res, h.endToEnd(setupCPU, t, heapMB), nil
}
