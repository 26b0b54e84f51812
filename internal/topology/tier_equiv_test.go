package topology

import (
	"fmt"
	"testing"
	"time"
)

// refTierBetween is the reference tier classification, built from the
// separately range-checked SameRack and SamePod predicates.
func refTierBetween(t *Topology, a, b int) Tier {
	switch {
	case a == b:
		return TierLocal
	case t.SameRack(a, b):
		return TierRack
	case t.SamePod(a, b):
		return TierPod
	default:
		return TierCore
	}
}

func refHopCount(t *Topology, a, b int) int {
	return [...]int{TierLocal: 0, TierRack: 1, TierPod: 3, TierCore: 5}[refTierBetween(t, a, b)]
}

func refLatency(t *Topology, a, b int) time.Duration {
	switch refTierBetween(t, a, b) {
	case TierLocal:
		return t.spec.LocalDelivery
	case TierRack:
		return t.spec.LANHop
	case TierPod:
		return 2 * t.spec.LANHop
	default:
		return 3 * t.spec.LANHop
	}
}

// panicText runs fn and returns its panic value rendered as text, or ""
// when it returns normally.
func panicText(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestTierBetweenMatchesReference compares TierBetween, HopCount and
// Latency with the reference on every server pair of small multi-pod
// topologies (a partial last pod, RacksPerPod 0 and beyond Racks, one rack
// per pod), and requires out-of-range arguments to panic with the same
// message as the reference — or not panic, where the reference does not.
func TestTierBetweenMatchesReference(t *testing.T) {
	specs := []Spec{
		{Racks: 7, ServersPerRack: 3, RacksPerPod: 3}, // last pod has one rack
		{Racks: 6, ServersPerRack: 4, RacksPerPod: 2},
		{Racks: 5, ServersPerRack: 2, RacksPerPod: 0}, // one pod
		{Racks: 4, ServersPerRack: 3, RacksPerPod: 9}, // clamped to one pod
		{Racks: 5, ServersPerRack: 1, RacksPerPod: 1}, // every rack its own pod
		{Racks: 1, ServersPerRack: 5},
	}
	for _, spec := range specs {
		spec.NICMbps = 1000
		spec.LANHop = 10 * time.Millisecond
		spec.LocalDelivery = 50 * time.Microsecond
		tp, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		n := tp.Servers()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if got, want := tp.TierBetween(a, b), refTierBetween(tp, a, b); got != want {
					t.Fatalf("%+v: TierBetween(%d,%d) = %v, reference %v", spec, a, b, got, want)
				}
				if got, want := tp.HopCount(a, b), refHopCount(tp, a, b); got != want {
					t.Fatalf("%+v: HopCount(%d,%d) = %d, reference %d", spec, a, b, got, want)
				}
				if got, want := tp.Latency(a, b), refLatency(tp, a, b); got != want {
					t.Fatalf("%+v: Latency(%d,%d) = %v, reference %v", spec, a, b, got, want)
				}
			}
		}
		bad := []int{-1, n, n + 7, -n}
		for _, x := range bad {
			for _, y := range append([]int{0, n - 1}, bad...) {
				for _, p := range [][2]int{{x, y}, {y, x}} {
					a, b := p[0], p[1]
					got := panicText(func() { tp.TierBetween(a, b) })
					want := panicText(func() { refTierBetween(tp, a, b) })
					if got != want {
						t.Fatalf("%+v: TierBetween(%d,%d) panics %q, reference %q", spec, a, b, got, want)
					}
					if a != b && got == "" {
						t.Fatalf("%+v: TierBetween(%d,%d) did not panic", spec, a, b)
					}
					if got, want := panicText(func() { tp.Latency(a, b) }), panicText(func() { refLatency(tp, a, b) }); got != want {
						t.Fatalf("%+v: Latency(%d,%d) panics %q, reference %q", spec, a, b, got, want)
					}
					if got, want := panicText(func() { tp.HopCount(a, b) }), panicText(func() { refHopCount(tp, a, b) }); got != want {
						t.Fatalf("%+v: HopCount(%d,%d) panics %q, reference %q", spec, a, b, got, want)
					}
				}
			}
		}
	}
}
