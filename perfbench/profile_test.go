package main

import (
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFoldStack(t *testing.T) {
	fr := func(fn, file string) frame { return frame{fn: fn, file: file} }
	lookup := fr("flexnet/internal/flexbpf.(*TableInstance).lookupIn", "/src/internal/flexbpf/table.go")
	batch := fr("flexnet/internal/flexbpf.(*BatchState).lookup", "/src/internal/flexbpf/batch.go")
	exec := fr("flexnet/internal/flexbpf.(*LinkedProgram).exec", "/src/internal/flexbpf/link.go")
	process := fr("flexnet/internal/dataplane.(*Device).ProcessCtx", "/src/internal/dataplane/device.go")
	event := fr("flexnet/internal/netsim.(*Sim).step", "/src/internal/netsim/sim.go")
	cases := []struct {
		name  string
		stack []frame
		want  string
	}{
		{"table scan", []frame{lookup, batch, exec, process, event}, "flexbpf_table"},
		{"batch lookup", []frame{batch, exec, process}, "flexbpf_table"},
		{"exec", []frame{exec, process, event}, "flexbpf_exec"},
		{"runtime under exec", []frame{fr("runtime.memmove", ""), exec, process}, "flexbpf_exec"},
		{"allocation", []frame{fr("runtime.nextFreeFast", ""), fr("runtime.mallocgc", ""), event}, "go_alloc"},
		{"assist inside allocation", []frame{fr("runtime.scanobject", ""), fr("runtime.gcAssistAlloc", ""), fr("runtime.mallocgc", ""), exec}, "go_gc"},
		{"background mark", []frame{fr("runtime.scanobject", ""), fr("runtime.gcBgMarkWorker", "")}, "go_gc"},
		{"subpackage folds into parent", []frame{fr("flexnet/internal/dataplane/state.(*Map).Load", ""), process}, "dataplane"},
		{"replica group", []frame{fr("flexnet/internal/controller/cluster.(*HA).tick", ""), fr("flexnet/internal/controller.(*HA).apply", "")}, "cluster"},
		{"delta DSL", []frame{fr("flexnet/internal/flexbpf/delta.Apply", "")}, "other"},
		{"root package", []frame{fr("flexnet.(*Network).Deploy", ""), fr("main.main", "")}, "other"},
		{"benchmark callback", []frame{fr("runtime.mapaccess2", ""), fr("main.(*sink).add.func1", ""), fr("flexnet/internal/fabric.(*Fabric).addHost.func1.1", "")}, "bench"},
		{"scheduler", []frame{fr("runtime.futex", ""), fr("runtime.mcall", "")}, "other"},
	}
	for _, c := range cases {
		if got := foldStack(c.stack); got != c.want {
			t.Errorf("%s: folded to %q, want %q", c.name, got, c.want)
		}
	}
}

// spin burns CPU in this package so its samples fold to "bench".
//
//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// rawText is `pprof -raw` output cut down by hand: three stacks, one
// location with a frame inlined into it, and one without symbols.
const rawText = `PeriodType: cpu nanoseconds
Period: 2000000
Samples:
samples/count cpu/nanoseconds
          3    6000000: 1 2 3 
          1    2000000: 4 5 
          2    4000000: 6 3 
Locations
     1: 0x51162c M=1 flexnet/internal/flexbpf.(*TableInstance).lookupIn /src/internal/flexbpf/table.go:505:0 s=493
     2: 0x5016eb M=1 flexnet/internal/flexbpf.(*BatchState).lookup /src/internal/flexbpf/batch.go:45:0 s=33
     3: 0x57f437 M=1 flexnet/internal/netsim.(*Sim).RunFor /src/internal/netsim/sim.go:180:0 s=180
             flexnet.(*Network).waitFor /src/flexnet.go:488:0 s=484
     4: 0x422151 M=1 runtime.scanobject /go/src/runtime/mgcmark.go:1444:0 s=1381
     5: 0x41dc46 M=1 runtime.gcBgMarkWorker /go/src/runtime/mgc.go:1483:0 s=1388
     6: 0x7ff746bde000 M=2 
Mappings
1: 0x400000/0x5cf000/0x0 /bin/perfbench [FN]
`

// TestFoldRaw folds the hand-written output: 6 ms of table scan, 2 ms
// of collector, and 4 ms whose innermost symbolised frame is the event
// loop.
func TestFoldRaw(t *testing.T) {
	cpu, err := foldRaw([]byte(rawText))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"flexbpf_table": 6, "go_gc": 2, "netsim": 4}
	for _, l := range cpuLayers {
		if cpu[l] != want[l] {
			t.Errorf("%s: %v ms, want %v", l, cpu[l], want[l])
		}
	}
	if _, err := foldRaw([]byte("Samples:\nsamples/count\n")); err == nil {
		t.Error("a profile without a nanosecond sample type folded without error")
	}
}

// TestFoldProfileReadsRealProfile folds a real CPU profile of this
// process through `go tool pprof`: the spinning must be charged to the
// benchmark's own layer.
func TestFoldProfileReadsRealProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cpu, err := foldProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, l := range cpuLayers {
		total += cpu[l]
	}
	if total == 0 || cpu["bench"] < total/2 {
		t.Fatalf("folded %v ms in total, %v ms to bench", total, cpu["bench"])
	}
}
