package pastry

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"vbundle/internal/ids"
	"vbundle/internal/sim"
)

// refInsertSortedByDist is the reference leaf-half insert: search, then
// duplicate check, then insert and truncate, with no early rejection.
// TestConsiderMatchesReference drives it in lockstep with production.
func refInsertSortedByDist(list []NodeHandle, h NodeHandle, max int, dist func(ids.Id) ids.Id) []NodeHandle {
	d := dist(h.Id)
	pos := sort.Search(len(list), func(i int) bool {
		return !dist(list[i].Id).Less(d)
	})
	if pos < len(list) && list[pos].Id == h.Id {
		return list // already present
	}
	list = append(list, NodeHandle{})
	copy(list[pos+1:], list[pos:])
	list[pos] = h
	if len(list) > max {
		list = list[:max]
	}
	return list
}

// refNeighborInsert is the reference neighborhood-set insert: binary search
// first, duplicate scan after, insert and truncate, with no early rejection.
func refNeighborInsert(n *Node, h NodeHandle) {
	d := n.prox(n.handle.Addr, h.Addr)
	pos := sort.Search(len(n.neighbors), func(i int) bool {
		di := n.prox(n.handle.Addr, n.neighbors[i].Addr)
		if di != d {
			return di > d
		}
		return !ids.CloserTo(n.handle.Id, n.neighbors[i].Id, h.Id)
	})
	for _, nb := range n.neighbors {
		if nb.Id == h.Id {
			return
		}
	}
	n.neighbors = append(n.neighbors, NodeHandle{})
	copy(n.neighbors[pos+1:], n.neighbors[pos:])
	n.neighbors[pos] = h
	if len(n.neighbors) > n.cfg.NeighborhoodSize {
		n.neighbors = n.neighbors[:n.cfg.NeighborhoodSize]
	}
}

// refConsider is Consider built from the reference inserts. The routing
// table insert is shared: it has no reference copy to compare against.
func refConsider(n *Node, h NodeHandle) {
	if h.IsNil() || h.Id == n.handle.Id {
		return
	}
	n.rtInsert(h)
	half := n.cfg.LeafSize / 2
	n.leafCW = refInsertSortedByDist(n.leafCW, h, half, n.cwDist)
	n.leafCCW = refInsertSortedByDist(n.leafCCW, h, half, n.ccwDist)
	refNeighborInsert(n, h)
}

// sameTables reports the first difference between two nodes' routing
// tables, leaf sets and neighborhood sets, or "" when they are identical.
func sameTables(a, b *Node) string {
	cfg := a.Config()
	for row := 0; row < cfg.rows(); row++ {
		for col := 0; col < cfg.cols(); col++ {
			if x, y := a.RoutingTableEntry(row, col), b.RoutingTableEntry(row, col); x != y {
				return fmt.Sprintf("rt[%d][%d] %v vs %v", row, col, x, y)
			}
		}
	}
	for _, s := range []struct {
		name string
		x, y []NodeHandle
	}{{"leafCW", a.leafCW, b.leafCW}, {"leafCCW", a.leafCCW, b.leafCCW}, {"neighbors", a.neighbors, b.neighbors}} {
		if len(s.x) != len(s.y) {
			return fmt.Sprintf("%s length %d vs %d", s.name, len(s.x), len(s.y))
		}
		for i := range s.x {
			if s.x[i] != s.y[i] {
				return fmt.Sprintf("%s[%d] %v vs %v", s.name, i, s.x[i], s.y[i])
			}
		}
	}
	return ""
}

// TestConsiderMatchesReference folds seeded random handle streams into one
// node with the production Consider and into its twin on an identical ring
// with the reference inserts, and requires bit-identical tables after every
// call. Streams mix duplicates, same-rack handles (proximity ties) and
// far-away ones; Forget calls interleave with them; rings start both empty
// (sets below capacity) and statically built (full sets); configurations
// include odd LeafSize and NeighborhoodSize.
func TestConsiderMatchesReference(t *testing.T) {
	cfgs := []Config{
		{},
		{LeafSize: 7, NeighborhoodSize: 5},
		{LeafSize: 1, NeighborhoodSize: 1},
		{B: 2, LeafSize: 9, NeighborhoodSize: 3},
	}
	assigners := []struct {
		name string
		fn   IdAssigner
	}{{"hierarchy", HierarchyAssigner}, {"random", RandomAssigner}}
	for ci, cfg := range cfgs {
		for _, as := range assigners {
			for _, static := range []bool{false, true} {
				name := fmt.Sprintf("cfg%d/%s/static=%v", ci, as.name, static)
				t.Run(name, func(t *testing.T) {
					mk := func() *Ring {
						r := NewRing(sim.NewEngine(1), testTopo(t, 12, 8), cfg, as.fn) // 96 nodes, 6 pods
						if static {
							r.BuildStatic()
						}
						return r
					}
					prod, ref := mk(), mk()
					rng := rand.New(rand.NewSource(int64(31*ci + 7)))
					for _, self := range []int{0, 37, 95} {
						a, b := prod.Node(self), ref.Node(self)
						if d := sameTables(a, b); d != "" {
							t.Fatalf("node %d differs before the stream: %s", self, d)
						}
						var seen []NodeHandle
						for step := 0; step < 3000; step++ {
							var h NodeHandle
							switch r := rng.Intn(20); {
							case r < 4 && len(seen) > 0:
								h = seen[rng.Intn(len(seen))] // duplicate
							case r < 10:
								// Same rack or pod: proximity ties.
								srv := self - self%16 + rng.Intn(16)
								h = prod.Node(srv % prod.Size()).Handle()
							case r < 11:
								h = a.Handle() // self: ignored
							case r < 12 && len(seen) > 0:
								// Forget a known node on both sides.
								id := seen[rng.Intn(len(seen))].Id
								a.Forget(id)
								b.Forget(id)
								if d := sameTables(a, b); d != "" {
									t.Fatalf("node %d step %d after Forget: %s", self, step, d)
								}
								continue
							default:
								h = prod.Node(rng.Intn(prod.Size())).Handle()
							}
							seen = append(seen, h)
							a.Consider(h)
							refConsider(b, h)
							if d := sameTables(a, b); d != "" {
								t.Fatalf("node %d step %d after Consider(%v): %s", self, step, h, d)
							}
						}
					}
				})
			}
		}
	}
}
