package main

// Traffic bookkeeping shared by the workloads: the flows the benchmark
// generated and the sink that checks every delivered packet against
// them.

import "flexnet"

// flow is one generated flow and what the benchmark saw of it.
type flow struct {
	src, dst  hostPos
	sport     uint16
	dport     uint16
	allow     bool // the benchmark's own ACL verdict
	source    *flexnet.Source
	delivered uint64
}

// sink checks every delivered packet against the benchmark's own model:
// the receiving host owns the destination address, the TTL fell by the
// fat-tree hop count, and the packet belongs to a known flow. Finished
// flows are checked and retired so a long run's bookkeeping stays flat.
type sink struct {
	h           *harness
	live        map[uint64]*flow
	hooked      map[string]bool
	delivered   uint64
	retiredSent uint64
}

func newSink(h *harness) *sink {
	return &sink{h: h, live: map[uint64]*flow{}, hooked: map[string]bool{}}
}

func flowKey(src uint32, sport uint16) uint64 { return uint64(src)<<16 | uint64(sport) }

// add registers a flow and hooks its destination host once.
func (s *sink) add(n *flexnet.Network, f *flow) error {
	s.live[flowKey(f.src.ip(), f.sport)] = f
	name := f.dst.name()
	if s.hooked[name] {
		return nil
	}
	s.hooked[name] = true
	ip := f.dst.ip()
	return n.OnHostReceive(name, func(p *flexnet.Packet) {
		f, ok := s.live[flowKey(uint32(p.Field("ipv4.src")), uint16(p.Field("tcp.sport")))]
		if !ok || uint32(p.Field("ipv4.dst")) != ip {
			s.h.failf("host %s received a packet for %#x from an unknown flow", name, p.Field("ipv4.dst"))
			return
		}
		if want := uint64(64 - fatTreeHops(f.src, f.dst)); p.Field("ipv4.ttl") != want {
			s.h.failf("flow %s→%s: ttl %d, want %d", f.src.name(), f.dst.name(), p.Field("ipv4.ttl"), want)
		}
		f.delivered++
		s.delivered++
	})
}

// sent totals packets sent by every flow so far, retired ones included.
func (s *sink) sent() uint64 {
	total := s.retiredSent
	for _, f := range s.live {
		total += f.source.Sent
	}
	return total
}

// check compares a flow's deliveries with its ACL verdict: everything
// it sent when allowed, nothing when denied.
func (s *sink) check(f *flow) {
	want := f.source.Sent
	if !f.allow {
		want = 0
	}
	if f.delivered != want {
		s.h.failf("flow %s→%s dport %d (allow=%v): delivered %d, want %d",
			f.src.name(), f.dst.name(), f.dport, f.allow, f.delivered, want)
	}
}

// retire checks finished flows and forgets them.
func (s *sink) retire(fs []*flow) {
	for _, f := range fs {
		s.check(f)
		s.retiredSent += f.source.Sent
		delete(s.live, flowKey(f.src.ip(), f.sport))
	}
}

// stop halts every live flow's schedule.
func (s *sink) stop() {
	for _, f := range s.live {
		f.source.Stop()
	}
}

// checkAll checks every live flow.
func (s *sink) checkAll() {
	for _, f := range s.live {
		s.check(f)
	}
}
