// Command perfbench is FlexNet's wall-clock and CPU benchmark. It drives the
// library in-process through its public API on three workloads that mix
// live traffic with runtime reconfiguration, checks the program's
// outputs against models computed apart from it, and prints every
// metric by name with its unit. README.md describes the workloads, the
// metrics and how to read them.
//
// One run of one workload (the last output line is the JSON result):
//
//	bash perfbench/run.sh --workload fabric-forward --seed 1 --seconds 15 --trace 0
//
// Every workload, untraced and traced, with the tracing overhead:
//
//	bash perfbench/run.sh --workload all --seed 1 --seconds 15
//
// Steadiness check: two sets of ten seeds per workload, with median,
// quartiles and spread against each metric's bound in BENCHMARK.json,
// and each metric's shift between the two sets' medians:
//
//	bash perfbench/run.sh --workload all --repeat 10 --sets 2 --seed 101 --seconds 15
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workloads in the order "all" runs them.
var workloads = []string{"fabric-forward", "fabric-cached", "control-churn"}

func main() {
	workload := flag.String("workload", "", "fabric-forward, fabric-cached, control-churn, or all")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in wall seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	repeat := flag.Int("repeat", 0, "run each workload this many times on consecutive seeds and report spreads")
	sets := flag.Int("sets", 1, "with --repeat: run this many sets of runs on fresh seeds and compare their medians")
	flag.Parse()

	var err error
	switch {
	case *repeat > 0:
		err = repeatMode(*workload, *seed, *seconds, *repeat, *sets)
	case *workload == "all":
		err = allMode(*seed, *seconds)
	default:
		err = runOne(*workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// machineFacts is printed before every result so numbers from different
// machines are never compared by accident.
func machineFacts(workload string, seed int64, workers int) string {
	return fmt.Sprintf("# machine: nproc=%d GOMAXPROCS=%d go=%s os=%s/%s workload=%s engine_workers=%d seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, workload, workers, seed)
}

// runOne runs one workload in this process and prints its result as the
// last line of standard output.
func runOne(workload string, seed int64, seconds float64, traced bool) error {
	h := newHarness(traced)
	var (
		res *result
		e2e map[string]metric
		err error
	)
	if shape, ok := fabricShapes[workload]; ok {
		res, e2e, err = h.run(seconds, func() (workloadRun, error) { return setupFabric(h, shape, seed) })
	} else if workload == "control-churn" {
		res, e2e, err = h.run(seconds, func() (workloadRun, error) { return setupChurn(h, seed) })
	} else {
		err = fmt.Errorf("unknown workload %q (want one of %s or all)", workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return err
	}
	fmt.Println(machineFacts(workload, seed, h.n.NumWorkers()))
	res.Correct = h.failures == 0
	for _, p := range h.problems {
		fmt.Println("# check failed:", p)
	}
	if h.failures > 0 {
		fmt.Printf("# %d checks failed\n", h.failures)
	}
	res.Metrics = e2e
	for _, name := range sortedKeys(h.layers) {
		if strings.HasPrefix(name, "wall.") {
			fmt.Printf("# %s = %.6g %s\n", name, h.layers[name].Value, h.layers[name].Unit)
		}
	}
	if traced {
		layers, err := h.tracedLayers(workload, seed)
		if err != nil {
			return err
		}
		// The traced run's own end-to-end figures, for the overhead.
		for _, name := range sortedKeys(e2e) {
			fmt.Printf("# traced.%s = %.6g %s\n", name, e2e[name].Value, e2e[name].Unit)
		}
		res.Metrics = layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// tracedLayers builds the per-layer metrics of a traced run: counts
// from telemetry, CPU folded from the timed phase's profile, and the
// span log and profile written to the build directory.
func (h *harness) tracedLayers(workload string, seed int64) (map[string]metric, error) {
	m := h.layers
	dir := outDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", workload, seed))
	if err := h.writeSpans(base + ".spans.jsonl"); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(base+".cpu.pprof", h.prof.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("write profile: %w", err)
	}
	cpu, err := foldProfile(base + ".cpu.pprof")
	if err != nil {
		return nil, fmt.Errorf("fold CPU profile: %w", err)
	}
	for _, l := range cpuLayers {
		m["cpu."+l+"_ms"] = metric{cpu[l], "ms"}
	}
	fmt.Printf("# spans: %d written to %s.spans.jsonl; profile at %s.cpu.pprof\n", len(h.spans), base, base)
	return m, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// child runs this program on one workload in a fresh process and
// returns its output lines and parsed result. A fresh process per run
// keeps heaps and caches of one run out of the next.
func child(workload string, seed int64, seconds float64, traced bool) ([]string, *result, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", tr)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("%s seed %d: no output", workload, seed)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, nil, fmt.Errorf("%s seed %d: bad result line: %w", workload, seed, err)
	}
	return lines, &res, nil
}

// allMode runs every workload untraced and traced, prints both results
// and the tracing overhead, and ends with one combined result line.
func allMode(seed int64, seconds float64) error {
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		var plain *result
		var plainLines []string
		for _, traced := range []bool{false, true} {
			lines, res, err := child(w, seed, seconds, traced)
			if err != nil {
				return err
			}
			fmt.Printf("## %s traced=%v\n", w, traced)
			for _, l := range lines {
				fmt.Println(l)
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			if !traced {
				plain, plainLines = res, lines
				for name, m := range res.Metrics {
					total.Metrics[w+"."+name] = m
				}
				continue
			}
			printOverhead(w, plain, plainLines, lines)
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// infoLines parses a run's "# <name> = <value> <unit>" lines.
func infoLines(lines []string) map[string]metric {
	out := map[string]metric{}
	for _, l := range lines {
		var name, unit string
		var v float64
		if _, err := fmt.Sscanf(l, "# %s = %g %s", &name, &v, &unit); err == nil {
			out[name] = metric{v, unit}
		}
	}
	return out
}

// printOverhead compares the traced run's own end-to-end and wall-clock
// figures with the untraced run's.
func printOverhead(workload string, plain *result, plainLines, tracedLines []string) {
	before, after := infoLines(plainLines), infoLines(tracedLines)
	for name, m := range plain.Metrics {
		before[name] = m
		if t, ok := after["traced."+name]; ok {
			after[name] = t
		}
	}
	for _, name := range sortedKeys(before) {
		p, t := before[name], after[name]
		if t.Unit != "" && p.Value != 0 {
			fmt.Printf("# overhead %s %s: untraced %.6g, traced %.6g %s (%+.1f%%)\n",
				workload, name, p.Value, t.Value, p.Unit, 100*(t.Value/p.Value-1))
		}
	}
}

// gate is an end-to-end metric's gate in BENCHMARK.json: its bound and
// whether higher is better.
type gate struct {
	bound  float64
	higher bool
}

// benchmarkGates reads each end-to-end metric's gate from
// BENCHMARK.json in the working directory (nil when absent).
func benchmarkGates() map[string]gate {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(data, &spec) != nil {
		return nil
	}
	out := map[string]gate{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = gate{m.Bound, m.Better == "higher"}
	}
	return out
}

// runSet is one set of runs of a workload: every metric's values, in
// seed order, with its unit, and the share of failed operations.
type runSet struct {
	first, last int64
	values      map[string][]float64
	units       map[string]string
	failedShare []float64
}

// repeat runs a workload untraced on seeds first..first+n-1.
func repeat(w string, first int64, seconds float64, n int) (*runSet, error) {
	rs := &runSet{first: first, last: first + int64(n) - 1, values: map[string][]float64{}, units: map[string]string{}}
	for seed := rs.first; seed <= rs.last; seed++ {
		lines, res, err := child(w, seed, seconds, false)
		if err != nil {
			return nil, err
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s seed %d: outputs incorrect", w, seed)
		}
		all := infoLines(lines)
		for name, m := range res.Metrics {
			all[name] = m
		}
		for name, m := range all {
			rs.values[name] = append(rs.values[name], m.Value)
			rs.units[name] = m.Unit
		}
		rs.failedShare = append(rs.failedShare, float64(res.Failed)/float64(res.Attempted))
	}
	return rs, nil
}

// repeatMode runs each selected workload in sets of n runs, set k on
// seeds seed+k*n .. seed+k*n+n-1. Per set it prints, per metric, the
// median, the quartiles and the spread (interquartile distance over the
// median) against the metric's bound; with two or more sets it also
// prints how far each later set's median moved from the first set's, in
// the metric's worse direction, against the same bound. It fails if any
// figure is over its bound or the sets' failed shares differ.
func repeatMode(workload string, seed int64, seconds float64, n, sets int) error {
	list := workloads
	if workload != "all" && workload != "" {
		list = []string{workload}
	}
	gates := benchmarkGates()
	allOK := true
	verdict := func(x, bound float64) string {
		switch {
		case x > bound:
			allOK = false
			return "OVER"
		case x > bound/3:
			return "over b/3"
		}
		return "ok"
	}
	for _, w := range list {
		var done []*runSet
		for k := 0; k < sets; k++ {
			rs, err := repeat(w, seed+int64(k*n), seconds, n)
			if err != nil {
				return err
			}
			done = append(done, rs)
			fmt.Printf("## %s: %d runs, seeds %d..%d, %gs each, failed share %v\n", w, n, rs.first, rs.last, seconds, rs.failedShare)
			fmt.Printf("%-20s %-6s %12s %12s %12s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
			for _, name := range sortedKeys(rs.values) {
				q1, med, q3 := quartiles(rs.values[name])
				spread := ratio(q3-q1, med)
				g, ok := gates[name]
				v := ""
				if ok {
					v = verdict(spread, g.bound)
				}
				fmt.Printf("%-20s %-6s %12.6g %12.6g %12.6g %8.4f %6.2f %s\n", name, rs.units[name], q1, med, q3, spread, g.bound, v)
				fmt.Printf("%-20s runs: %.6g\n", "", rs.values[name])
			}
		}
		for k := 1; k < len(done); k++ {
			a, b := done[0], done[k]
			fmt.Printf("## %s: set %d..%d against set %d..%d\n", w, b.first, b.last, a.first, a.last)
			fmt.Printf("%-20s %12s %12s %8s %6s\n", "metric", "median 1", "median 2", "worse", "bound")
			for _, name := range sortedKeys(gates) {
				_, m1, _ := quartiles(a.values[name])
				_, m2, _ := quartiles(b.values[name])
				worse := ratio(m2-m1, m1)
				if gates[name].higher {
					worse = -worse
				}
				fmt.Printf("%-20s %12.6g %12.6g %+8.4f %6.2f %s\n", name, m1, m2, worse, gates[name].bound, verdict(worse, gates[name].bound))
			}
			for _, f := range append(a.failedShare, b.failedShare...) {
				if f != a.failedShare[0] {
					allOK = false
					fmt.Printf("failed share differs: %v against %v\n", b.failedShare, a.failedShare)
					break
				}
			}
		}
	}
	if !allOK {
		return fmt.Errorf("some figures exceed their bounds")
	}
	return nil
}
