package main

// Independent checkers. Everything here is computed apart from the
// program under test: the ACL rule set and its evaluator, fat-tree hop
// counts from host positions, and the percentile rules the metrics use.
// Nothing reads program state or a stored copy of earlier output.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// aclRule is one generated ACL rule: ternary matches on the source and
// destination address, an inclusive range on the TCP destination port.
// Rules never overlap because every rule owns its own port window.
type aclRule struct {
	Priority          int
	SrcValue, SrcMask uint32
	DstValue, DstMask uint32
	PortLo, PortHi    uint16
	Deny              bool
}

// matches reports whether a packet with these fields hits the rule.
func (r aclRule) matches(src, dst uint32, dport uint16) bool {
	return src&r.SrcMask == r.SrcValue&r.SrcMask &&
		dst&r.DstMask == r.DstValue&r.DstMask &&
		dport >= r.PortLo && dport <= r.PortHi
}

// aclAllows evaluates the rule set the way a priority TCAM does: the
// highest-priority matching rule decides; with no match the packet is
// allowed (the ACL's default action).
func aclAllows(rules []aclRule, src, dst uint32, dport uint16) bool {
	best := -1
	for i, r := range rules {
		if r.matches(src, dst, dport) && (best < 0 || r.Priority > rules[best].Priority) {
			best = i
		}
	}
	return best < 0 || !rules[best].Deny
}

// Port layout of the generated ACL: rule i owns the window
// [aclPortBase+i*aclWindow, aclPortBase+(i+1)*aclWindow-1]; ports at or
// above aclFreePort match no rule.
const (
	aclPortBase = 2000
	aclWindow   = 64
	aclFreePort = 20000
)

// genACL generates n non-overlapping rules for a k-ary fat-tree's
// 10.pod.edge.host addressing. Source and destination are each either a
// wildcard or one pod (a /16 ternary mask). Rules alternate deny and
// allow, and the first four rules are wildcard denies, so every
// source/destination pair has at least one deny rule that matches it.
func genACL(rng *rand.Rand, k, n int) []aclRule {
	if n < 4 || aclPortBase+n*aclWindow > aclFreePort {
		panic(fmt.Sprintf("perfbench: ACL size %d out of range", n))
	}
	rules := make([]aclRule, n)
	for i := range rules {
		r := aclRule{
			Priority: n - i,
			PortLo:   uint16(aclPortBase + i*aclWindow),
			PortHi:   uint16(aclPortBase + (i+1)*aclWindow - 1),
			Deny:     i < 4 || i%2 == 0,
		}
		if i >= 4 {
			if rng.Intn(2) == 0 {
				r.SrcValue, r.SrcMask = podPrefix(rng.Intn(k)), 0xFFFF0000
			}
			if rng.Intn(2) == 0 {
				r.DstValue, r.DstMask = podPrefix(rng.Intn(k)), 0xFFFF0000
			}
		}
		rules[i] = r
	}
	return rules
}

// podPrefix is the 10.pod.0.0 address of a fat-tree pod.
func podPrefix(pod int) uint32 { return 10<<24 | uint32(pod)<<16 }

// pickPort chooses a destination port that gives the wanted verdict for
// a src→dst flow: deny picks a port inside a matching deny rule's
// window; allow picks a matching allow rule's window half the time and
// the rule-free port space otherwise.
func pickPort(rng *rand.Rand, rules []aclRule, src, dst uint32, deny bool) uint16 {
	var cands []aclRule
	for _, r := range rules {
		if r.Deny == deny && r.matches(src, dst, r.PortLo) {
			cands = append(cands, r)
		}
	}
	if !deny && (len(cands) == 0 || rng.Intn(2) == 0) {
		return uint16(aclFreePort + rng.Intn(1000))
	}
	r := cands[rng.Intn(len(cands))]
	return r.PortLo + uint16(rng.Intn(int(r.PortHi-r.PortLo)+1))
}

// hostPos is a fat-tree host's position: pod, edge switch, host slot.
type hostPos struct{ Pod, Edge, Slot int }

// name is the fabric's host name for the position.
func (p hostPos) name() string { return fmt.Sprintf("p%d-e%d-h%d", p.Pod, p.Edge, p.Slot) }

// ip is the host's 10.pod.edge.(slot+2) address.
func (p hostPos) ip() uint32 {
	return 10<<24 | uint32(p.Pod)<<16 | uint32(p.Edge)<<8 | uint32(p.Slot+2)
}

// fatTreeHops is the number of switches on a shortest path between two
// hosts of a fat-tree: their shared edge switch; edge, aggregation and
// edge inside one pod; or edge, aggregation, core, aggregation and edge
// across pods.
func fatTreeHops(a, b hostPos) int {
	switch {
	case a.Pod == b.Pod && a.Edge == b.Edge:
		return 1
	case a.Pod == b.Pod:
		return 3
	default:
		return 5
	}
}

// nearestRank is the q-quantile (0 < q <= 1) of samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at
// or below it. It returns 0 for no samples.
func nearestRank(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// quartiles returns the first quartile, median and third quartile by the
// rule of Python's statistics.quantiles(data, n=4) (its default
// "exclusive" method), which the steadiness check uses. It needs at
// least two values.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}
