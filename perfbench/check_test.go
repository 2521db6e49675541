package main

import (
	"math/rand"
	"testing"
)

func TestACLEvaluatorHandWorked(t *testing.T) {
	rules := []aclRule{
		// Deny pod 1 sources to ports 2000-2063.
		{Priority: 3, SrcValue: podPrefix(1), SrcMask: 0xFFFF0000, PortLo: 2000, PortHi: 2063, Deny: true},
		// Allow anything to pod 2 on ports 2064-2127 (explicit allow).
		{Priority: 2, DstValue: podPrefix(2), DstMask: 0xFFFF0000, PortLo: 2064, PortHi: 2127},
		// Deny anything to ports 2128-2191.
		{Priority: 1, PortLo: 2128, PortHi: 2191, Deny: true},
	}
	ip := func(pod, edge, host int) uint32 { return hostPos{pod, edge, host}.ip() }
	cases := []struct {
		name     string
		src, dst uint32
		port     uint16
		allow    bool
	}{
		{"pod-1 source in deny window", ip(1, 0, 0), ip(3, 0, 0), 2000, false},
		{"deny window upper edge", ip(1, 3, 1), ip(0, 0, 0), 2063, false},
		{"other pod source in the same window", ip(2, 0, 0), ip(3, 0, 0), 2000, true},
		{"explicit allow to pod 2", ip(1, 0, 0), ip(2, 1, 1), 2100, true},
		{"wildcard deny", ip(5, 0, 0), ip(6, 0, 0), 2128, false},
		{"no rule matches", ip(1, 0, 0), ip(3, 0, 0), aclFreePort, true},
	}
	for _, c := range cases {
		if got := aclAllows(rules, c.src, c.dst, c.port); got != c.allow {
			t.Errorf("%s: allow=%v, want %v", c.name, got, c.allow)
		}
	}
	// With overlapping rules the higher priority decides.
	over := append(rules, aclRule{Priority: 9, SrcValue: podPrefix(1), SrcMask: 0xFFFF0000, PortLo: 2010, PortHi: 2010})
	if !aclAllows(over, ip(1, 0, 0), ip(3, 0, 0), 2010) {
		t.Error("higher-priority allow did not override the deny")
	}
}

func TestGeneratedACLGivesWantedVerdicts(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const k = 8
		rules := genACL(rng, k, 64)
		for i := range rules {
			for j := i + 1; j < len(rules); j++ {
				if rules[i].PortLo <= rules[j].PortHi && rules[j].PortLo <= rules[i].PortHi {
					t.Fatalf("seed %d: rules %d and %d share ports", seed, i, j)
				}
			}
		}
		for n := 0; n < 200; n++ {
			src := hostPos{rng.Intn(k), rng.Intn(k / 2), rng.Intn(k / 2)}
			dst := hostPos{rng.Intn(k), rng.Intn(k / 2), rng.Intn(k / 2)}
			deny := n%4 == 0
			port := pickPort(rng, rules, src.ip(), dst.ip(), deny)
			if aclAllows(rules, src.ip(), dst.ip(), port) == deny {
				t.Fatalf("seed %d: port %d for %s→%s does not give deny=%v", seed, port, src.name(), dst.name(), deny)
			}
		}
	}
}

func TestFatTreeHops(t *testing.T) {
	cases := []struct {
		a, b hostPos
		want int
	}{
		{hostPos{0, 0, 0}, hostPos{0, 0, 1}, 1}, // one edge switch
		{hostPos{3, 1, 0}, hostPos{3, 2, 0}, 3}, // edge, aggregation, edge
		{hostPos{3, 1, 0}, hostPos{3, 1, 0}, 1},
		{hostPos{0, 0, 0}, hostPos{1, 0, 0}, 5}, // through a core
		{hostPos{7, 3, 3}, hostPos{2, 3, 3}, 5},
	}
	for _, c := range cases {
		if got := fatTreeHops(c.a, c.b); got != c.want {
			t.Errorf("hops %s→%s = %d, want %d", c.a.name(), c.b.name(), got, c.want)
		}
	}
	if p := (hostPos{3, 1, 2}); p.name() != "p3-e1-h2" || p.ip() != 10<<24|3<<16|1<<8|4 {
		t.Errorf("host position maps to %s %#x", p.name(), p.ip())
	}
}

func TestNearestRank(t *testing.T) {
	s := []float64{7, 1, 10, 3, 5, 2, 9, 4, 6, 8}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}} {
		if got := nearestRank(s, c.q); got != c.want {
			t.Errorf("q=%v: %v, want %v", c.q, got, c.want)
		}
	}
	if nearestRank(nil, 0.5) != 0 || nearestRank([]float64{4}, 0.9) != 4 {
		t.Error("empty or single-sample percentile wrong")
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(data, n=4) on hand-checked inputs.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3, 1, 4, 1.5}, [3]float64{1.125, 2.25, 3.75}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
