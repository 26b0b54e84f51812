package placement

import (
	"testing"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/pastry"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

func benchWorld(b *testing.B, servers int) (*sim.Engine, *cluster.Cluster, *DHT) {
	b.Helper()
	tp, err := topology.New(topology.Spec{
		Racks:            (servers + 7) / 8,
		ServersPerRack:   8,
		RacksPerPod:      2,
		NICMbps:          1000,
		Oversubscription: 8,
		LANHop:           time.Millisecond,
		LocalDelivery:    10 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	engine := sim.NewEngine(1)
	ring := pastry.NewRing(engine, tp, pastry.Config{}, pastry.HierarchyAssigner)
	ring.BuildStatic()
	cl := cluster.New(tp, cluster.Resources{CPU: 64, MemMB: 1 << 20})
	return engine, cl, NewDHT(ring, cl, DHTConfig{})
}

// BenchmarkBootQuerySteadyState measures the full boot hot path — query
// envelope, overlay route, region walk, admission, reply — in its steady
// state: one VM is placed and removed again each iteration, so every query
// resolves against the same cluster. Envelope pooling, pre-sized walk
// buffers and the single-timer timeout wheel make the loop nearly
// allocation-free; allocs/op is the figure of merit here, reported so
// regressions show up in vb-bench snapshots.
func BenchmarkBootQuerySteadyState(b *testing.B) {
	engine, cl, d := benchWorld(b, 256)
	vm, err := cl.CreateVM("bench", cluster.Resources{CPU: 1, MemMB: 128, BandwidthMbps: 100},
		cluster.Resources{CPU: 2, MemMB: 256, BandwidthMbps: 200})
	if err != nil {
		b.Fatal(err)
	}
	done := func(r Result, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	place := func() {
		d.Place(vm, done)
		engine.Run()
	}
	// Warm the pools and the route before measuring.
	place()
	cl.Unplace(vm.ID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place()
		cl.Unplace(vm.ID)
	}
}

// BenchmarkBootQueryCached is the same loop with the resolution cache
// attached: after the first routed query every placement skips the overlay
// route and reaches the rendezvous in one direct hop.
func BenchmarkBootQueryCached(b *testing.B) {
	engine, cl, d := benchWorld(b, 256)
	d.SetCache(NewResolutionCache())
	vm, err := cl.CreateVM("bench", cluster.Resources{CPU: 1, MemMB: 128, BandwidthMbps: 100},
		cluster.Resources{CPU: 2, MemMB: 256, BandwidthMbps: 200})
	if err != nil {
		b.Fatal(err)
	}
	done := func(r Result, err error) {
		if err != nil {
			b.Fatal(err)
		}
	}
	place := func() {
		d.Place(vm, done)
		engine.Run()
	}
	place()
	cl.Unplace(vm.ID)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place()
		cl.Unplace(vm.ID)
	}
}

// BenchmarkBootQueryLongWalk measures the spill walk itself: every server
// is full except one that the customer's walk reaches only after at least
// 200 servers, so each query pays a long walk — the cost a saturated home
// region puts on a serving stream, which BenchmarkBootQuerySteadyState
// (one hop) cannot see. hops/op reports the walk length; allocs/op must
// not grow with it (no per-hop copying, no per-hop visited-set growth).
func BenchmarkBootQueryLongWalk(b *testing.B) {
	const minHops = 200
	engine, cl, d := benchWorld(b, 512)
	res := cluster.Resources{CPU: 1, MemMB: 128, BandwidthMbps: 100}
	vm, err := cl.CreateVM("bench", res, res)
	if err != nil {
		b.Fatal(err)
	}
	fillers := make([]*cluster.VM, cl.Size())
	for s := range fillers {
		full := cluster.Resources{CPU: 1, MemMB: 128, BandwidthMbps: cl.Server(s).Capacity.BandwidthMbps}
		if fillers[s], err = cl.CreateVM("filler", full, full); err != nil {
			b.Fatal(err)
		}
		if err := cl.Place(fillers[s], s); err != nil {
			b.Fatal(err)
		}
	}
	var (
		last    Result
		lastErr error
	)
	place := func() {
		d.Place(vm, func(r Result, err error) { last, lastErr = r, err })
		engine.Run()
		cl.Unplace(vm.ID)
	}
	// Free one server at a time, farthest from the customer's home first,
	// until the walk to it is long enough; the probe also warms the pools.
	home := int(d.ring.ClosestLive(vm.Key).Addr())
	for k := 0; ; k++ {
		if k == cl.Size()/2 {
			b.Fatalf("no server lies %d walk hops from home %d", minHops, home)
		}
		target := (home + cl.Size()/2 + k) % cl.Size()
		cl.Unplace(fillers[target].ID)
		place()
		if lastErr == nil && last.Hops >= minHops {
			break
		}
		if err := cl.Place(fillers[target], target); err != nil {
			b.Fatal(err)
		}
	}
	hops := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		place()
		if lastErr != nil {
			b.Fatal(lastErr)
		}
		hops += last.Hops
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops/op")
}
