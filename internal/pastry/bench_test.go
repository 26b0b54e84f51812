package pastry

import (
	"testing"
	"time"

	"vbundle/internal/ids"
	"vbundle/internal/sim"
	"vbundle/internal/topology"
)

func benchRing(b *testing.B, servers int) (*sim.Engine, *Ring) {
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
	ring := NewRing(engine, tp, Config{}, HierarchyAssigner)
	ring.BuildStatic()
	return engine, ring
}

// BenchmarkNextHop measures the pure routing decision, the function on the
// critical path of every overlay hop.
func BenchmarkNextHop(b *testing.B) {
	engine, ring := benchRing(b, 256)
	node := ring.Node(0)
	keys := make([]ids.Id, 1024)
	for i := range keys {
		keys[i] = ids.Random(engine.Rand())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = node.NextHop(keys[i%len(keys)])
	}
}

// BenchmarkRouteDelivery measures a full key-routed delivery: envelope,
// per-hop forwarding through the simulated network, and the final up-call.
// Envelope and engine-event recycling makes the steady state nearly
// allocation-free.
func BenchmarkRouteDelivery(b *testing.B) {
	engine, ring := benchRing(b, 256)
	sink := &BaseApp{}
	for _, n := range ring.Nodes() {
		n.Register("bench", sink)
	}
	keys := make([]ids.Id, 1024)
	for i := range keys {
		keys[i] = ids.Random(engine.Rand())
	}
	size := ring.Size()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.Node(i%size).Route(keys[i%len(keys)], "bench", nil)
		engine.Run()
	}
}

// BenchmarkConsider measures folding gossiped handles into a converged
// node: one node of a statically built 8192-server ring takes in a recorded
// stream of what its maintenance peers send it — the leaf-set snapshots of
// its leaves and the routing-table rows of its row-0 peers. On a converged
// ring nearly every handle changes nothing, so this is the cost of the
// early rejections; it must not allocate.
func BenchmarkConsider(b *testing.B) {
	_, ring := benchRing(b, 8192)
	node := ring.Node(4096)
	var stream []NodeHandle
	record := func(peer NodeHandle, hs []NodeHandle) {
		stream = append(stream, peer)
		stream = append(stream, hs...)
	}
	ccw, cw := node.LeafSet()
	for _, leaf := range append(cw, ccw...) {
		peer := ring.Node(int(leaf.Addr))
		pcw, pccw := peer.leafSnapshot()
		record(leaf, append(pcw, pccw...))
	}
	cfg := node.Config()
	for col := 0; col < cfg.cols(); col++ {
		if e := node.RoutingTableEntry(0, col); !e.IsNil() {
			peer := ring.Node(int(e.Addr))
			for row := 0; row < peer.rtRows; row++ {
				record(e, peer.rowEntries(row))
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.Consider(stream[i%len(stream)])
	}
}
