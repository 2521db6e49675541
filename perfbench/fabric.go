package main

// The two packet-heavy workloads, fabric-forward and fabric-cached: a
// fat-tree under an open-loop flow schedule (in simulated time) with a
// stateless ternary+range ACL on every edge switch, while one closed-loop
// caller churns a verdict-neutral monitor app (scale out, update,
// migrate, scale in).

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"flexnet"
	"flexnet/internal/flexbpf"
)

// fabricShape fixes everything a fabric workload's cost depends on.
type fabricShape struct {
	k     int  // fat-tree radix
	cache bool // megaflow flow cache on every switch
	// heavyHitter selects the stateful count-min monitor; otherwise the
	// churned monitor is a stateless, cacheable selector.
	heavyHitter bool
	// Long-lived flows and their per-flow rate. mixed spreads them over
	// same-edge, same-pod and cross-pod pairs (1:1:2); otherwise every
	// flow crosses pods.
	flows   int
	flowPPS float64
	mixed   bool
	// mice is the number of short flows started each round.
	mice int
}

var fabricShapes = map[string]fabricShape{
	"fabric-forward": {
		k: 16, heavyHitter: true,
		flows: 512, flowPPS: 60,
	},
	"fabric-cached": {
		k: 8, cache: true,
		flows: 128, flowPPS: 500, mixed: true,
		mice: 64,
	},
}

const (
	// aclRules is the size of the generated ACL.
	aclRules = 64
	// A mouse sends micePkts packets micePeriod apart from a fresh
	// 5-tuple.
	micePkts   = 4
	micePeriod = time.Millisecond
	// gap is traffic-only simulated time at the end of each round.
	gap = 10 * time.Millisecond
	// Both fabric workloads run one engine worker: on two vCPUs the
	// sharded pool delivered no more packets per second and widened the
	// run-to-run spread (README.md).
	fabricWorkers = 1

	monURI = "flexnet://infra/mon"
	monSeg = "mon"
	// The tuner is updated in place every round and never moves: an
	// updated instance that is later removed leaks device parser budget
	// (see CHANGES.md), so Update and removal go to different apps.
	tunerURI = "flexnet://infra/tune"
	tunerSeg = "tune"
)

// aclProgram is the stateless edge ACL: one ternary+range table whose
// entries allow or deny; unmatched packets are allowed.
func aclProgram(size int) *flexnet.Program {
	return flexnet.NewProgram("acl").
		Headers("eth", "ipv4", "tcp").
		Requires(flexnet.Capabilities{TCAM: true}).
		Action("acl_deny", 0, flexnet.NewAsm().Drop().MustBuild()).
		Action("acl_allow", 0, flexnet.NewAsm().Ret().MustBuild()).
		Table(&flexnet.TableSpec{
			Name: "acl",
			Keys: []flexnet.TableKey{
				{Field: "ipv4.src", Kind: flexbpf.MatchTernary, Bits: 32},
				{Field: "ipv4.dst", Kind: flexbpf.MatchTernary, Bits: 32},
				{Field: "tcp.dport", Kind: flexbpf.MatchRange, Bits: 16},
			},
			Actions:       []string{"acl_deny", "acl_allow"},
			DefaultAction: "acl_allow",
			Size:          size,
		}).
		Apply("acl").
		MustBuild()
}

// aclEntry is the table entry for one generated rule.
func aclEntry(r aclRule) *flexnet.TableEntry {
	action := "acl_allow"
	if r.Deny {
		action = "acl_deny"
	}
	return &flexnet.TableEntry{
		Priority: r.Priority,
		Match: []flexbpf.MatchValue{
			{Value: uint64(r.SrcValue), Mask: uint64(r.SrcMask)},
			{Value: uint64(r.DstValue), Mask: uint64(r.DstMask)},
			{Value: uint64(r.PortLo), Hi: uint64(r.PortHi)},
		},
		Action: action,
	}
}

// monitorProgram is the app the round moves around. The heavy hitter's
// threshold is out of reach, so it never punts; the stateless selector's
// table stays empty, so it only passes packets. Either way verdicts
// never change.
func monitorProgram(heavyHitter bool) *flexnet.Program {
	if heavyHitter {
		return flexnet.HeavyHitter(monSeg, 2, 512, 1<<62)
	}
	return selectorProgram(monSeg)
}

// selectorProgram is a stateless, cacheable app: one empty exact table
// whose default action passes the packet.
func selectorProgram(name string) *flexnet.Program {
	return flexnet.NewProgram(name).
		Headers("eth", "ipv4").
		Action(name+"_pass", 0, flexnet.NewAsm().Ret().MustBuild()).
		Table(&flexnet.TableSpec{
			Name:          name + "_sel",
			Keys:          []flexnet.TableKey{{Field: "ipv4.dst", Kind: flexbpf.MatchExact, Bits: 32}},
			Actions:       []string{name + "_pass"},
			DefaultAction: name + "_pass",
			Size:          64,
		}).
		Apply(name + "_sel").
		MustBuild()
}

// tunerDelta is the round's Update of the tuner app: its table is
// resized, alternately doubled and restored.
func tunerDelta(round int) *flexnet.Delta {
	return &flexnet.Delta{Name: "tune-resize", Ops: []flexnet.DeltaOp{{ResizeTables: tunerSeg + "_sel", NewSize: 64 << (round % 2)}}}
}

// fabricRun is one built fabric workload, ready to measure.
type fabricRun struct {
	shape fabricShape
	n     *flexnet.Network
	rng   *rand.Rand
	rules []aclRule
	sink  *sink
	model []string // the benchmark's model of the monitor's replica set
	// cores alternate as the monitor's primary; scaleTo lists the
	// aggregation switches scale-outs visit, one per round.
	cores   []string
	scaleTo []string
	nextID  int
	// mice are the short flows the current round started.
	mice []*flow
}

// newFlow draws a flow of the given hop class (1, 3 or 5 switches) and
// ACL verdict from the run's generator.
func (r *fabricRun) newFlow(hops int, allow bool) *flow {
	k := r.shape.k
	half := k / 2
	src := hostPos{Pod: r.rng.Intn(k), Edge: r.rng.Intn(half), Slot: r.rng.Intn(half)}
	dst := src
	switch hops {
	case 1:
		dst.Slot = (src.Slot + 1 + r.rng.Intn(half-1)) % half
	case 3:
		dst.Edge = (src.Edge + 1 + r.rng.Intn(half-1)) % half
		dst.Slot = r.rng.Intn(half)
	default:
		dst = hostPos{Pod: (src.Pod + 1 + r.rng.Intn(k-1)) % k, Edge: r.rng.Intn(half), Slot: r.rng.Intn(half)}
	}
	r.nextID++
	return &flow{
		src: src, dst: dst,
		sport: uint16(1024 + r.nextID%60000),
		dport: pickPort(r.rng, r.rules, src.ip(), dst.ip(), !allow),
		allow: allow,
	}
}

// startFlow registers a flow with the sink after checking the generator
// against the benchmark's own evaluator, then creates its source.
func (r *fabricRun) startFlow(f *flow) error {
	if aclAllows(r.rules, f.src.ip(), f.dst.ip(), f.dport) != f.allow {
		return fmt.Errorf("flow generator disagrees with the ACL evaluator on %s→%s:%d", f.src.name(), f.dst.name(), f.dport)
	}
	src, err := r.n.NewSource(f.src.name(), flexnet.FlowSpec{
		Dst: f.dst.ip(), Proto: 6, SrcPort: f.sport, DstPort: f.dport, PacketLen: 0,
	})
	if err != nil {
		return err
	}
	f.source = src
	return r.sink.add(r.n, f)
}

// setupFabric builds the fabric, installs the ACL on every edge switch,
// deploys the monitor, starts the long-lived flows and warms up.
func setupFabric(h *harness, shape fabricShape, seed int64) (*fabricRun, error) {
	ctx := context.Background()
	n, err := flexnet.New(seed).Workers(fabricWorkers).FlowCache(shape.cache).Topo(fmt.Sprintf("fat-tree:k=%d", shape.k)).Build()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	r := &fabricRun{shape: shape, n: n, rng: rng, rules: genACL(rng, shape.k, aclRules), sink: newSink(h)}
	half := shape.k / 2
	for p := 0; p < shape.k; p++ {
		for e := 0; e < half; e++ {
			edge := fmt.Sprintf("p%d-e%d", p, e)
			uri := "flexnet://infra/acl-" + edge
			if _, err := n.Deploy(ctx, uri, flexnet.AppSpec{Programs: []*flexnet.Program{aclProgram(2 * aclRules)}, Path: []string{edge}}, flexnet.DeployOptions{}); err != nil {
				return nil, fmt.Errorf("deploy ACL on %s: %w", edge, err)
			}
			inst := n.Device(edge).Instance(uri + "#acl")
			if inst == nil {
				return nil, fmt.Errorf("ACL instance missing on %s", edge)
			}
			for _, rule := range r.rules {
				if err := inst.Table("acl").Insert(aclEntry(rule)); err != nil {
					return nil, fmt.Errorf("insert ACL rule on %s: %w", edge, err)
				}
			}
		}
	}
	// Two cores take turns as the monitor's primary; scale-outs visit
	// aggregation switches in a seeded order.
	r.cores = []string{"c0", fmt.Sprintf("c%d", half*half-1)}
	for _, p := range rng.Perm(shape.k) {
		r.scaleTo = append(r.scaleTo, fmt.Sprintf("p%d-a%d", p, rng.Intn(half)))
	}
	if _, err := n.Deploy(ctx, monURI, flexnet.AppSpec{Programs: []*flexnet.Program{monitorProgram(shape.heavyHitter)}, Path: []string{r.cores[0]}}, flexnet.DeployOptions{}); err != nil {
		return nil, fmt.Errorf("deploy monitor: %w", err)
	}
	r.model = []string{r.cores[0]}
	if _, err := n.Deploy(ctx, tunerURI, flexnet.AppSpec{Programs: []*flexnet.Program{selectorProgram(tunerSeg)}, Path: []string{r.cores[1]}}, flexnet.DeployOptions{}); err != nil {
		return nil, fmt.Errorf("deploy tuner: %w", err)
	}
	for i := 0; i < shape.flows; i++ {
		hops := 5
		if shape.mixed {
			hops = []int{1, 3, 5, 5}[i%4]
		}
		// Every fourth flow of each hop class is denied.
		if err := r.startFlow(r.newFlow(hops, (i/4)%4 != 0)); err != nil {
			return nil, err
		}
	}
	for _, f := range r.sink.live {
		f.source.StartCBR(shape.flowPPS)
	}
	n.RunFor(warmup)
	return r, nil
}

// startMice starts the round's short flows: fresh 5-tuples that send a
// few packets each, spread over the hop classes like the long flows.
func (r *fabricRun) startMice() error {
	r.mice = r.mice[:0]
	for i := 0; i < r.shape.mice; i++ {
		f := r.newFlow([]int{1, 3, 5, 5}[i%4], (i/4)%4 != 0)
		if err := r.startFlow(f); err != nil {
			return err
		}
		r.mice = append(r.mice, f)
		src := f.source
		for j := 0; j < micePkts; j++ {
			r.n.After(time.Duration(j)*micePeriod, func() { src.EmitOne(0) })
		}
	}
	return nil
}

// round runs one round of the closed control loop under traffic: scale
// the monitor out, update the tuner, dry-run and then migrate the
// monitor's primary to the other core, scale the monitor back in, then
// let traffic run for the gap.
func (r *fabricRun) round(h *harness, i int) {
	ctx := context.Background()
	n := r.n
	if r.shape.mice > 0 {
		h.traceSpan("mice", func() {
			// The previous round's mice finished sending a round ago.
			r.sink.retire(r.mice)
			if err := r.startMice(); err != nil {
				h.failf("start mice: %v", err)
			}
		})
	}
	extra := r.scaleTo[i%len(r.scaleTo)]
	if h.call("scale", true, func() error {
		_, err := n.Scale(ctx, flexnet.ScaleRequest{URI: monURI, Segment: monSeg, Device: extra})
		return err
	}) == nil {
		r.model = append(r.model, extra)
	}
	checkReplicas(h, n, monURI, monSeg, r.model)
	h.call("update", true, func() error {
		_, _, err := n.Update(ctx, flexnet.UpdateRequest{URI: tunerURI, Segment: tunerSeg, Delta: tunerDelta(i)})
		return err
	})
	checkReplicas(h, n, tunerURI, tunerSeg, r.cores[1:])
	from, to := r.cores[i%2], r.cores[(i+1)%2]
	h.call("dry_run", false, func() error {
		_, _, err := n.Migrate(ctx, flexnet.MigrateRequest{URI: monURI, Segment: monSeg, Dst: to, DryRun: true})
		return err
	})
	if h.call("migrate", true, func() error {
		_, _, err := n.Migrate(ctx, flexnet.MigrateRequest{URI: monURI, Segment: monSeg, Dst: to})
		return err
	}) == nil {
		r.model = replace(r.model, from, to)
	}
	checkReplicas(h, n, monURI, monSeg, r.model)
	if h.call("scale", true, func() error {
		_, err := n.Scale(ctx, flexnet.ScaleRequest{URI: monURI, Segment: monSeg, Device: extra, Direction: flexnet.ScaleDirIn})
		return err
	}) == nil {
		r.model = remove(r.model, extra)
	}
	checkReplicas(h, n, monURI, monSeg, r.model)
	h.traceSpan("traffic", func() { n.RunFor(gap) })
}

func (r *fabricRun) network() *flexnet.Network { return r.n }
func (r *fabricRun) traffic() *sink            { return r.sink }

// finalChecks checks the flow cache's invariants over the whole run:
// nothing stale was ever served, and every packet visit to a switch
// (all switches cache) was exactly one hit or one miss.
func (r *fabricRun) finalChecks(h *harness) {
	if !r.shape.cache {
		return
	}
	c := counters(r.n.Stats())
	empty := map[string]uint64{}
	if s := sumWhere(empty, c, "flowcache.", ".stale_served"); s != 0 {
		h.failf("flow cache served %d stale entries", s)
	}
	lookups := sumWhere(empty, c, "flowcache.", ".hits") + sumWhere(empty, c, "flowcache.", ".misses")
	if hops := sumWhere(empty, c, "dev.", ".packets_processed"); lookups != hops {
		h.failf("flow cache hits+misses %d != packet-hops %d", lookups, hops)
	}
}

// checkReplicas compares an app segment's live replica set — the
// controller's record and the devices that actually hold an instance —
// with the benchmark's model.
func checkReplicas(h *harness, n *flexnet.Network, uri, seg string, model []string) {
	want := map[string]bool{}
	for _, d := range model {
		want[d] = true
	}
	var rec []string
	if app := n.Controller().App(uri); app != nil {
		rec = app.Replicas[seg]
	}
	if !sameSet(rec, want) {
		h.failf("%s#%s: controller replicas %v, model %v", uri, seg, rec, model)
	}
	var live []string
	for _, d := range n.Fabric().Devices() {
		if n.Device(d).Instance(uri+"#"+seg) != nil {
			live = append(live, d)
		}
	}
	if !sameSet(live, want) {
		h.failf("%s#%s: live instances on %v, model %v", uri, seg, live, model)
	}
}

func sameSet(got []string, want map[string]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, d := range got {
		if !want[d] {
			return false
		}
	}
	return true
}

// replace swaps one device of a set for another.
func replace(set []string, from, to string) []string {
	out := make([]string, 0, len(set))
	for _, d := range set {
		if d == from {
			d = to
		}
		out = append(out, d)
	}
	return out
}

// remove drops one device from a set.
func remove(set []string, dev string) []string {
	out := make([]string, 0, len(set))
	for _, d := range set {
		if d != dev {
			out = append(out, d)
		}
	}
	return out
}
