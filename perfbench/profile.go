package main

// CPU-profile folding. A traced run profiles its own process with
// runtime/pprof and writes the profile to a file; this file reads every
// sample's stack back through `go tool pprof -raw`, which ships with
// the Go toolchain that builds the benchmark, and folds the sample's CPU
// time into one layer by foldStack's rule.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profileHz is the traced run's CPU sampling rate.
const profileHz = 500

// cpuLayers are the layers a traced run reports as cpu.<layer>_ms.
// "bench" is the benchmark's own code (checks, flow generation);
// "other" is everything else (scheduler, syscalls, packages of the
// library outside the named layers).
var cpuLayers = []string{
	"netsim", "packet", "flexbpf_exec", "flexbpf_table", "flowcache",
	"dataplane", "fabric", "telemetry", "go_alloc", "go_gc",
	"compiler", "controller", "spec", "runtime", "routing", "migrate",
	"audit", "cluster", "drpc", "bench", "other",
}

// benchPackage is this package's import path, the name its functions
// carry in a test binary (a command's carry "main.").
const benchPackage = "flexnet/perfbench"

// frame is one stack frame: the function's full name and source file.
type frame struct{ fn, file string }

// foldStack assigns one sample's stack (innermost frame first) to a
// layer. Go's collector and allocator come first, wherever they were
// called from. Otherwise the innermost frame that belongs either to a
// flexnet package or to the benchmark's own code decides: a flexnet
// package names its layer (flexbpf split into table lookup and the
// rest, exec), the benchmark's code is "bench". The rest is "other".
func foldStack(stack []frame) string {
	for _, f := range stack {
		if isGCFrame(f.fn) {
			return "go_gc"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "runtime.mallocgc") {
			return "go_alloc"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.fn, "main.") || funcPackage(f.fn) == benchPackage {
			return "bench"
		}
		if l := flexnetLayer(f); l != "" {
			return l
		}
	}
	return "other"
}

// isGCFrame recognises the garbage collector's entry points: background
// mark workers, mark assists charged to allocating goroutines, sweeping
// and scavenging.
func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
		"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
		"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.deductSweepCredit",
		"runtime.markroot", "runtime.scanobject", "runtime.wbBufFlush"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// flexnetLayer maps a frame of the library to its layer, or "" for a
// frame outside it. The layer is the package under flexnet/internal;
// subpackages fold into their parent, except the controller's replica
// group ("cluster").
func flexnetLayer(f frame) string {
	pkg := funcPackage(f.fn)
	if pkg != "flexnet" && !strings.HasPrefix(pkg, "flexnet/") {
		return ""
	}
	rest, ok := strings.CutPrefix(pkg, "flexnet/internal/")
	if !ok {
		return "other" // the root package: thin wrappers over the layers
	}
	if rest == "controller/cluster" {
		return "cluster"
	}
	top, _, _ := strings.Cut(rest, "/")
	switch top {
	case "flexbpf":
		if rest == "flexbpf" && (strings.HasSuffix(f.file, "/flexbpf/table.go") || strings.Contains(f.fn, "BatchState).lookup")) {
			return "flexbpf_table"
		}
		if rest != "flexbpf" {
			return "other" // the delta DSL
		}
		return "flexbpf_exec"
	case "netsim", "packet", "flowcache", "dataplane", "fabric", "telemetry", "compiler",
		"controller", "spec", "runtime", "routing", "migrate", "audit", "drpc":
		return top
	}
	return "other"
}

// funcPackage is the import path of a Go function's package:
// "flexnet/internal/flexbpf.(*TableInstance).lookupIn" gives
// "flexnet/internal/flexbpf".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// foldProfile folds the CPU profile in the file at path into
// milliseconds of CPU per layer.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldRaw(out)
}

// foldRaw folds the text `pprof -raw` prints. Its "Samples:" section
// opens with a header naming the sample types ("samples/count
// cpu/nanoseconds") and then has one "<values>: <location ids>" line per
// stack, innermost location first. Its "Locations" section has one
// "<id>: <address> M=<mapping> <function> <file:line:column> s=<line>"
// line per location, followed by an indented "<function> <file:...>
// s=<line>" line for each frame inlined into it; the first frame is the
// innermost.
func foldRaw(text []byte) (map[string]float64, error) {
	var (
		section string
		vi      = -1
		samples []rawSample
		locs    = map[uint64][]frame{}
		loc     uint64
	)
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSpace(line)
			continue
		}
		switch section {
		case "Samples:":
			if vi < 0 {
				for i, t := range strings.Fields(line) {
					if strings.HasSuffix(t, "/nanoseconds") {
						vi = i
					}
				}
				if vi < 0 {
					return nil, errors.New("profile has no nanosecond sample type")
				}
				continue
			}
			if s, ok := parseSample(line, vi); ok {
				samples = append(samples, s)
			}
		case "Locations":
			f := strings.Fields(line)
			if len(f) >= 2 && strings.HasSuffix(f[0], ":") && strings.HasPrefix(f[1], "0x") {
				id, err := strconv.ParseUint(strings.TrimSuffix(f[0], ":"), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad location line %q", line)
				}
				loc, f = id, f[2:]
				if len(f) > 0 && strings.HasPrefix(f[0], "M=") {
					f = f[1:]
				}
			}
			if fr, ok := parseFrame(f); ok {
				locs[loc] = append(locs[loc], fr)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if vi < 0 {
		return nil, errors.New("no samples section in pprof output")
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = 0
	}
	var stack []frame
	for _, s := range samples {
		stack = stack[:0]
		for _, id := range s.locs {
			stack = append(stack, locs[id]...)
		}
		out[foldStack(stack)] += float64(s.ns) / 1e6
	}
	return out, nil
}

// rawSample is one stack of a profile: its CPU nanoseconds and its
// location ids, innermost first.
type rawSample struct {
	ns   int64
	locs []uint64
}

// parseSample reads a "<values>: <location ids>" line, taking the CPU
// time from value vi. Other lines (labels) are not samples.
func parseSample(line string, vi int) (rawSample, bool) {
	vals, ids, ok := strings.Cut(line, ":")
	if !ok {
		return rawSample{}, false
	}
	v := strings.Fields(vals)
	if vi >= len(v) {
		return rawSample{}, false
	}
	ns, err := strconv.ParseInt(v[vi], 10, 64)
	if err != nil {
		return rawSample{}, false
	}
	s := rawSample{ns: ns}
	for _, f := range strings.Fields(ids) {
		id, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return rawSample{}, false
		}
		s.locs = append(s.locs, id)
	}
	return s, true
}

// parseFrame reads "<function> <file:line:column> s=<line>". A
// location without symbols has no frame.
func parseFrame(f []string) (frame, bool) {
	if len(f) < 3 || !strings.HasPrefix(f[len(f)-1], "s=") {
		return frame{}, false
	}
	file := f[len(f)-2]
	for i := 0; i < 2; i++ { // drop ":line:column"
		if j := strings.LastIndexByte(file, ':'); j >= 0 {
			file = file[:j]
		}
	}
	return frame{fn: strings.Join(f[:len(f)-2], " "), file: file}, true
}
