package main

// The control-churn workload: a k=16 fat-tree with a 3-replica HA
// controller group and light probe traffic, driven by one closed-loop
// caller through a fixed round of mixed writes and reads.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"flexnet"
)

const (
	churnK        = 16
	churnReplicas = 3
	probeFlows    = 4
	probePPS      = 50
	churnURI      = "flexnet://ops/x"
	churnSeg      = "x"
	churnTunerURI = "flexnet://infra/tune"
	// outage is the simulated traffic time a flapped link stays down.
	outage = 5 * time.Millisecond
)

// specApp is one app of a generated spec revision: the benchmark's
// model of what it asked the controller for.
type specApp struct {
	uri, tenant, seg, kind string
	args                   []uint64
	scale                  int
}

// specRevision is one generated spec revision and its source document.
type specRevision struct {
	version string
	apps    []specApp
	doc     []byte
}

// genSpecs generates the two spec revisions the workload alternates
// between. From A to B: the heavy hitter grows 4→6, the firewall is
// retuned in place (a hitless swap on its replicas), the rate limiter
// shrinks 3→1, a SYN defense appears, the telemetry app and the tuner
// stay put. The round updates the tuner imperatively; applying either
// revision swaps it back.
// Thresholds come from the seed; the shape of the change does not.
func genSpecs(rng *rand.Rand) (a, b specRevision) {
	thr := uint64(1000 + rng.Intn(9000))
	syn := uint64(10 + rng.Intn(90))
	a = specRevision{version: "v1", apps: []specApp{
		{"flexnet://acme/hh", "acme", "hh", "heavy-hitter", []uint64{2, 256, thr}, 4},
		{"flexnet://acme/fw", "acme", "fw", "firewall", []uint64{64, 1024, 0}, 2},
		{"flexnet://globex/rl", "globex", "rl", "rate-limiter", nil, 3},
		{"flexnet://infra/mon", "", "int", "int", nil, 2},
		{churnTunerURI, "", tunerSeg, "rate-limiter", []uint64{8}, 1},
	}}
	b = specRevision{version: "v2", apps: []specApp{
		{"flexnet://acme/hh", "acme", "hh", "heavy-hitter", []uint64{2, 256, thr}, 6},
		{"flexnet://acme/fw", "acme", "fw", "firewall", []uint64{64, 2048, 0}, 2},
		{"flexnet://globex/rl", "globex", "rl", "rate-limiter", nil, 1},
		{"flexnet://globex/syn", "globex", "syn", "syn-defense", []uint64{2048, syn}, 2},
		{"flexnet://infra/mon", "", "int", "int", nil, 2},
		{churnTunerURI, "", tunerSeg, "rate-limiter", []uint64{8}, 1},
	}}
	a.doc, b.doc = specDoc(a), specDoc(b)
	return a, b
}

// specDoc renders a revision as a spec document.
func specDoc(r specRevision) []byte {
	doc := fmt.Sprintf("version: %s\ntenants:\n  - name: acme\n  - name: globex\napps:\n", r.version)
	for _, a := range r.apps {
		doc += fmt.Sprintf("  - uri: %s\n", a.uri)
		if a.tenant != "" {
			doc += fmt.Sprintf("    tenant: %s\n", a.tenant)
		}
		doc += fmt.Sprintf("    segments:\n      - name: %s\n        app: %s\n", a.seg, a.kind)
		if len(a.args) > 0 {
			doc += "        args: ["
			for i, v := range a.args {
				if i > 0 {
					doc += ", "
				}
				doc += fmt.Sprint(v)
			}
			doc += "]\n"
		}
		doc += fmt.Sprintf("        scale: %d\n", a.scale)
	}
	return []byte(doc)
}

// churnRun is the built control-churn workload.
type churnRun struct {
	n      *flexnet.Network
	a, b   specRevision
	sink   *sink
	drills uint64
	// edges and aggs are the seeded device orders the imperative app
	// visits, one step per round.
	edges, aggs []string
	// flaps are the seeded edge–aggregation links the rounds fail and
	// restore, one per round. They lie in pods no probe flow enters, so
	// an outage reroutes no probe packet and changes no hop count.
	flaps [][2]string
}

// setupChurn builds the fabric, enables HA, converges spec A, starts
// the probe flows and warms up.
func setupChurn(h *harness, seed int64) (*churnRun, error) {
	n, err := flexnet.New(seed).Topo(fmt.Sprintf("fat-tree:k=%d", churnK)).Build()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	r := &churnRun{n: n, sink: newSink(h)}
	r.a, r.b = genSpecs(rng)
	n.EnableHA(churnReplicas, flexnet.HAConfig{Seed: seed})
	if _, err := n.ApplySpec(context.Background(), flexnet.SpecApplyRequest{Source: r.a.doc}); err != nil {
		return nil, fmt.Errorf("apply spec %s: %w", r.a.version, err)
	}
	half := churnK / 2
	for _, p := range rng.Perm(churnK) {
		r.edges = append(r.edges, fmt.Sprintf("p%d-e%d", p, rng.Intn(half)))
		r.aggs = append(r.aggs, fmt.Sprintf("p%d-a%d", p, rng.Intn(half)))
	}
	probed := map[int]bool{}
	for i := 0; i < probeFlows; i++ {
		src := hostPos{Pod: rng.Intn(churnK), Edge: rng.Intn(half), Slot: rng.Intn(half)}
		dst := hostPos{Pod: (src.Pod + 1 + rng.Intn(churnK-1)) % churnK, Edge: rng.Intn(half), Slot: rng.Intn(half)}
		probed[src.Pod], probed[dst.Pod] = true, true
		f := &flow{src: src, dst: dst, sport: uint16(1024 + i), dport: 80, allow: true}
		if f.source, err = n.NewSource(src.name(), flexnet.FlowSpec{Dst: dst.ip(), Proto: 6, SrcPort: f.sport, DstPort: f.dport}); err != nil {
			return nil, err
		}
		if err := r.sink.add(n, f); err != nil {
			return nil, err
		}
		f.source.StartCBR(probePPS)
	}
	for _, p := range rng.Perm(churnK) {
		if !probed[p] {
			r.flaps = append(r.flaps, [2]string{fmt.Sprintf("p%d-e%d", p, rng.Intn(half)), fmt.Sprintf("p%d-a%d", p, rng.Intn(half))})
		}
	}
	n.RunFor(warmup)
	return r, nil
}

// flap fails a link, recomputes routes, runs traffic through the
// outage, then restores the link and recomputes again, as an operator
// or a link monitor would. It is one control call; round says why.
func (r *churnRun) flap(h *harness, link [2]string) {
	h.call("route", true, func() error {
		for _, down := range []bool{true, false} {
			if err := r.n.SetLinkDown(link[0], link[1], down); err != nil {
				return err
			}
			if err := r.n.RefreshRoutes(); err != nil {
				return err
			}
			if down {
				r.n.RunFor(outage)
			}
		}
		return nil
	})
}

// applySpec applies a revision and checks every app's replica set
// against it: the replica count it asked for, and live instances on
// exactly the devices the controller records. Apps absent from the
// revision must be gone everywhere.
func (r *churnRun) applySpec(h *harness, rev specRevision, others ...specRevision) {
	if h.call("spec_apply", true, func() error {
		_, err := r.n.ApplySpec(context.Background(), flexnet.SpecApplyRequest{Source: rev.doc})
		return err
	}) != nil {
		return
	}
	want := map[string]bool{}
	for _, a := range rev.apps {
		want[a.uri] = true
		app := r.n.Controller().App(a.uri)
		if app == nil || len(app.Replicas[a.seg]) != a.scale {
			h.failf("spec %s: %s has replicas %v, asked for %d", rev.version, a.uri, replicasOf(app, a.seg), a.scale)
			continue
		}
		checkReplicas(h, r.n, a.uri, a.seg, app.Replicas[a.seg])
	}
	for _, o := range others {
		for _, a := range o.apps {
			if !want[a.uri] {
				checkReplicas(h, r.n, a.uri, a.seg, nil)
			}
		}
	}
}

// previewSpec makes the reads an operator makes before applying a
// revision: DiffSpec and a dry-run ApplySpec. Both must see a change,
// and the dry run must validate plans without executing any.
func (r *churnRun) previewSpec(h *harness, rev specRevision) {
	var diff *flexnet.SpecDiff
	if h.call("spec_diff", false, func() (err error) {
		diff, err = r.n.DiffSpec(flexnet.SpecDiffRequest{Source: rev.doc})
		return err
	}) == nil && diff.Empty() {
		h.failf("diff against the unapplied spec %s is empty", rev.version)
	}
	var rep *flexnet.SpecReport
	if h.call("spec_dry_run", false, func() (err error) {
		rep, err = r.n.ApplySpec(context.Background(), flexnet.SpecApplyRequest{Source: rev.doc, DryRun: true})
		return err
	}) != nil {
		return
	}
	if len(rep.Plans) == 0 {
		h.failf("dry run of spec %s validated no plan", rev.version)
	}
	for _, p := range rep.Plans {
		if p.Outcome.String() != "planned" {
			h.failf("dry run of spec %s: plan %s %s", rev.version, p.Label, p.Outcome)
		}
	}
}

// checkApplied checks that the last applied revision is converged:
// re-applying it emits zero plans, DiffSpec against it is empty, and
// SpecStatus reports it in sync.
func (r *churnRun) checkApplied(h *harness, rev specRevision) {
	n := r.n
	var again *flexnet.SpecReport
	if h.call("spec_apply", false, func() (err error) {
		again, err = n.ApplySpec(context.Background(), flexnet.SpecApplyRequest{Source: rev.doc})
		return err
	}) == nil && again.PlansEmitted != 0 {
		h.failf("re-applying spec %s emitted %d plans", rev.version, again.PlansEmitted)
	}
	var diff *flexnet.SpecDiff
	if h.call("spec_diff", false, func() (err error) {
		diff, err = n.DiffSpec(flexnet.SpecDiffRequest{Source: rev.doc})
		return err
	}) == nil && !diff.Empty() {
		h.failf("diff against the applied spec %s is not empty: %s", rev.version, diff.Summary())
	}
	var status flexnet.SpecStatusInfo
	h.call("spec_status", false, func() error { status = n.SpecStatus(); return nil })
	if !status.InSync || status.Version != rev.version {
		h.failf("spec status %s in-sync=%v after applying %s", status.Version, status.InSync, rev.version)
	}
}

func replicasOf(app *flexnet.App, seg string) []string {
	if app == nil {
		return nil
	}
	return app.Replicas[seg]
}

// drill runs one HA failover drill and waits, in simulated time, until
// a successor serves and the killed replica is back as a standby.
func (r *churnRun) drill(h *harness) {
	n := r.n
	err := h.call("failover", true, func() error {
		if _, err := n.HAFailover(); err != nil {
			return err
		}
		for i := 0; i < 200; i++ {
			n.RunFor(10 * time.Millisecond)
			if st := n.HAStatus(); st.Active >= 0 && !st.Frozen && allAlive(st) {
				return nil
			}
		}
		return fmt.Errorf("no successor after the drill")
	})
	if err != nil {
		return
	}
	r.drills++
	serving := 0
	for _, rep := range n.HAStatus().Replicas {
		if rep.Serving {
			serving++
		}
	}
	if serving != 1 {
		h.failf("after drill %d: %d replicas serve", r.drills, serving)
	}
}

func allAlive(st flexnet.HAStatus) bool {
	for _, rep := range st.Replicas {
		if !rep.Alive {
			return false
		}
	}
	return len(st.Replicas) == churnReplicas
}

// round is the fixed round of 25 control calls: spec A→B, previewed by
// a diff and a dry run and followed by idempotence, diff and status
// checks; the imperative app's whole life (deploy, scale out, migrate,
// scale in, remove) with an in-place update of the tuner, dry runs and
// status reads beside them; a link flap with its route recomputes; a
// failover drill; and spec B→A, which also swaps the tuner back, with
// the same preview and checks.
//
// The mix sets where the percentiles of op_cpu fall. Per round the
// costliest calls are the link flap, the drill (whose cost grows with
// the audit history) and the two converging spec applies; the 90th
// percentile's 2.5 calls per round from the top lands inside the spec
// applies, and the median inside the sub-millisecond writes and reads,
// away from the edges of those groups.
func (r *churnRun) round(h *harness, i int) {
	ctx := context.Background()
	n := r.n
	r.previewSpec(h, r.b)
	r.applySpec(h, r.b, r.a)
	r.checkApplied(h, r.b)

	edge, agg, dst := r.edges[i%len(r.edges)], r.aggs[i%len(r.aggs)], r.edges[(i+1)%len(r.edges)]
	spec := flexnet.AppSpec{Programs: []*flexnet.Program{flexnet.HeavyHitter(churnSeg, 2, 128, 1<<62)}, Path: []string{edge}}
	h.call("dry_run", false, func() error {
		_, err := n.Deploy(ctx, churnURI, spec, flexnet.DeployOptions{DryRun: true})
		return err
	})
	var model []string
	if h.call("deploy", true, func() error {
		_, err := n.Deploy(ctx, churnURI, spec, flexnet.DeployOptions{})
		return err
	}) == nil {
		model = []string{edge}
	}
	checkReplicas(h, n, churnURI, churnSeg, model)
	h.call("ha_status", false, func() error {
		if st := n.HAStatus(); st.Active < 0 {
			return fmt.Errorf("no active replica")
		}
		return nil
	})
	tuned := replicasOf(n.Controller().App(churnTunerURI), tunerSeg)
	h.call("update", true, func() error {
		_, _, err := n.Update(ctx, flexnet.UpdateRequest{URI: churnTunerURI, Segment: tunerSeg, Delta: &flexnet.Delta{
			Name: "tune-resize", Ops: []flexnet.DeltaOp{{ResizeTables: tunerSeg + "_classes", NewSize: 16}},
		}})
		return err
	})
	checkReplicas(h, n, churnTunerURI, tunerSeg, tuned)
	if h.call("scale", true, func() error {
		_, err := n.Scale(ctx, flexnet.ScaleRequest{URI: churnURI, Segment: churnSeg, Device: agg})
		return err
	}) == nil {
		model = append(model, agg)
	}
	checkReplicas(h, n, churnURI, churnSeg, model)
	h.call("dry_run", false, func() error {
		_, _, err := n.Migrate(ctx, flexnet.MigrateRequest{URI: churnURI, Segment: churnSeg, Dst: dst, DryRun: true})
		return err
	})
	if h.call("migrate", true, func() error {
		_, _, err := n.Migrate(ctx, flexnet.MigrateRequest{URI: churnURI, Segment: churnSeg, Dst: dst})
		return err
	}) == nil {
		model = replace(model, edge, dst)
	}
	checkReplicas(h, n, churnURI, churnSeg, model)
	if h.call("scale", true, func() error {
		_, err := n.Scale(ctx, flexnet.ScaleRequest{URI: churnURI, Segment: churnSeg, Device: agg, Direction: flexnet.ScaleDirIn})
		return err
	}) == nil {
		model = remove(model, agg)
	}
	checkReplicas(h, n, churnURI, churnSeg, model)
	h.call("dry_run", false, func() error {
		_, err := n.Remove(ctx, churnURI, flexnet.RemoveOptions{DryRun: true})
		return err
	})
	if h.call("remove", true, func() error {
		_, err := n.Remove(ctx, churnURI, flexnet.RemoveOptions{})
		return err
	}) == nil {
		model = nil
	}
	checkReplicas(h, n, churnURI, churnSeg, model)

	r.flap(h, r.flaps[i%len(r.flaps)])

	r.drill(h)
	h.call("ha_status", false, func() error {
		if st := n.HAStatus(); int(st.Failovers) != int(r.drills) {
			return fmt.Errorf("ha status counts %d failovers after %d drills", st.Failovers, r.drills)
		}
		return nil
	})
	r.previewSpec(h, r.a)
	r.applySpec(h, r.a, r.b)
	r.checkApplied(h, r.a)
}

func (r *churnRun) network() *flexnet.Network { return r.n }
func (r *churnRun) traffic() *sink            { return r.sink }

// finalChecks checks the end state: no intent drift, an audit chain
// that verifies and replays to the controller's canonical intent, and
// one counted failover per drill.
func (r *churnRun) finalChecks(h *harness) {
	n := r.n
	if drift := n.IntentDrift(); len(drift) != 0 {
		h.failf("intent drift at end of run: %v", drift)
	}
	if err := n.Audit().Verify(); err != nil {
		h.failf("audit chain does not verify: %v", err)
	} else if st, err := flexnet.ReplayAudit(n.Audit().Records()); err != nil {
		h.failf("audit replay: %v", err)
	} else if st.Canonical() != n.CanonicalIntent() {
		h.failf("audit replay differs from the controller's canonical intent")
	}
	if st := n.HAStatus(); st.Failovers != r.drills {
		h.failf("%d failovers counted, %d drills run", st.Failovers, r.drills)
	}
	if h.layers["routing.entries_recomputed_per_op"].Value == 0 {
		h.failf("the link flaps recomputed no routes")
	}
}
