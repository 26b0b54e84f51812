package placement

import (
	"math/rand"
	"testing"

	"vbundle/internal/cluster"
	"vbundle/internal/ids"
	"vbundle/internal/pastry"
	"vbundle/internal/simnet"
)

// wireRec is one boot-query message as its receiver saw it.
type wireRec struct {
	to   simnet.Addr
	size int
	done bool
}

// outcome is one VM's placement answer.
type outcome struct {
	vm     cluster.VMID
	result Result
	failed bool
}

// spillWorld is a DHT engine whose agents log every boot-query message they
// receive. With oracle set, the agents walk with linearScanAgent instead of
// the production spill choice.
type spillWorld struct {
	*world
	d      *DHT
	oracle bool
	// walked holds, per in-flight query, the identifiers the oracle walk has
	// reached.
	walked   map[uint64][]ids.Id
	log      []wireRec
	outcomes []outcome
	// maxVisited is the longest visited list seen on the wire; freshWide
	// counts fresh envelopes whose visited set already spans several words,
	// i.e. pooled envelopes reused after a walk that set high bits.
	maxVisited, freshWide int
}

func newSpillWorld(t *testing.T, oracle bool) *spillWorld {
	w := &spillWorld{world: newWorld(t, 32, 8, 1000), oracle: oracle, walked: map[uint64][]ids.Id{}}
	// NewDHT without its agent registration: each node gets the wrapping
	// app instead, around the same agent.
	w.d = &DHT{
		ring:    w.ring,
		cl:      w.cl,
		cfg:     DHTConfig{}.withDefaults(w.cl.Size()),
		agents:  make([]*dhtAgent, w.ring.Size()),
		pending: make(map[uint64]pendingQuery),
	}
	w.d.timerFn = w.d.onTimer
	for i := range w.d.agents {
		w.bind(t, i)
	}
	return w
}

// bind gives server i a fresh agent and registers the logging (and, for the
// oracle, walking) app over it: RebindNode with the wrapper.
func (w *spillWorld) bind(t *testing.T, i int) {
	a := &dhtAgent{d: w.d, server: i, node: w.ring.Node(i)}
	w.d.agents[i] = a
	var app pastry.App = &loggingAgent{dhtAgent: a, t: t, w: w}
	if w.oracle {
		app = &linearScanAgent{loggingAgent{dhtAgent: a, t: t, w: w}}
	}
	a.node.Register(AppName, app)
}

// restart crash-restarts server i the way core does: a blank node under the
// same address and identifier, the agent rebound, tables rebuilt from the
// old node's peers.
func (w *spillWorld) restart(t *testing.T, i int) {
	peers := w.ring.Node(i).Peers()
	node := w.ring.RebuildNode(i)
	w.bind(t, i)
	node.Rejoin(peers)
	w.engine.Run()
}

func (w *spillWorld) boot(vms []*cluster.VM) {
	record := func(i int, r Result, err error) {
		w.outcomes = append(w.outcomes, outcome{vm: vms[i].ID, result: r, failed: err != nil})
	}
	if len(vms) == 1 {
		w.d.Place(vms[0], func(r Result, err error) { record(0, r, err) })
	} else {
		w.d.PlaceBatch(vms, record)
	}
	w.engine.Run()
}

type loggingAgent struct {
	*dhtAgent
	t *testing.T
	w *spillWorld
}

func (l *loggingAgent) note(q *bootQuery) {
	if !q.Done && len(q.Visited) == 0 {
		// A fresh envelope, possibly straight from the pool after a long
		// walk: its visited set must be empty.
		for k, word := range q.seen {
			if word != 0 {
				l.t.Fatalf("query %d starts with stale visited bits %#x in word %d", q.Seq, word, k)
			}
		}
		if len(q.seen) > 1 {
			l.w.freshWide++
		}
	}
	if len(q.Visited) > l.w.maxVisited {
		l.w.maxVisited = len(q.Visited)
	}
	l.w.log = append(l.w.log, wireRec{to: l.node.Addr(), size: q.WireSize(), done: q.Done})
}

func (l *loggingAgent) Deliver(key ids.Id, payload simnet.Message, info pastry.RouteInfo) {
	l.note(payload.(*bootQuery))
	l.dhtAgent.Deliver(key, payload, info)
}

func (l *loggingAgent) HandleDirect(from pastry.NodeHandle, payload simnet.Message) {
	l.note(payload.(*bootQuery))
	l.dhtAgent.HandleDirect(from, payload)
}

// linearScanAgent is the reference spill walk: the visited set is a linear
// scan over the identifiers the walk has reached, and the candidates are
// the copies Neighborhood and LeafSet return. Admission, answers and the
// gateway are the production code, so the two worlds can differ only in
// the spill choice and the wire size. Timeouts are out of scope: the
// streams below never hit one.
type linearScanAgent struct{ loggingAgent }

func (o *linearScanAgent) Deliver(_ ids.Id, payload simnet.Message, info pastry.RouteInfo) {
	q := payload.(*bootQuery)
	o.note(q)
	q.Home = o.node.Handle()
	q.Spill += info.Hops
	o.walk(q)
}

func (o *linearScanAgent) HandleDirect(_ pastry.NodeHandle, payload simnet.Message) {
	q := payload.(*bootQuery)
	o.note(q)
	if q.Done {
		o.d.finish(q)
		return
	}
	q.Spill++
	o.walk(q)
}

func (o *linearScanAgent) walk(q *bootQuery) {
	walked := append(o.w.walked[q.Seq], o.node.ID())
	o.w.walked[q.Seq] = walked
	q.visit(o.node.Addr()) // wire size and envelope hygiene only; never read here
	next := pastry.NoHandle
	if o.admit(q) > 0 && q.Spill < o.d.cfg.MaxSpillHops {
		next = o.linearNext(q.Key, walked)
	}
	if next.IsNil() {
		delete(o.w.walked, q.Seq)
		o.reply(q)
		return
	}
	o.node.SendDirect(next, AppName, q)
}

func (o *linearScanAgent) linearNext(key ids.Id, walked []ids.Id) pastry.NodeHandle {
	seen := func(id ids.Id) bool {
		for _, v := range walked {
			if v == id {
				return true
			}
		}
		return false
	}
	best := pastry.NoHandle
	var bestLat int64
	self := o.node.Handle()
	ccw, cw := o.node.LeafSet()
	for _, h := range append(append(o.node.Neighborhood(), ccw...), cw...) {
		if h.IsNil() || seen(h.Id) {
			continue
		}
		lat := int64(o.node.LatencyBetween(self.Addr, h.Addr))
		switch {
		case best.IsNil(), lat < bestLat:
			best, bestLat = h, lat
		case lat == bestLat && ids.CloserTo(key, h.Id, best.Id):
			best = h
		}
	}
	return best
}

// TestSpillWalkMatchesLinearScanOracle drives seeded boot/destroy streams
// through the production engine and the linear-scan oracle in lockstep and
// requires the same answer for every VM and the same wire size for every
// boot-query message. The streams saturate a customer's home region, so
// walks run past 64 servers (across visited-set words) and pooled
// envelopes are reused right after long walks; halfway through, the
// popular customer's home server is crash-restarted.
func TestSpillWalkMatchesLinearScanOracle(t *testing.T) {
	seeds := []int64{1, 2, 3}
	ops := 240
	if testing.Short() {
		seeds, ops = seeds[:1], 160
	}
	customers := []string{"Accolade", "Beenox", "Crystal", "Deck13", "Epyx", "Firaxis"}
	for _, seed := range seeds {
		prod, orc := newSpillWorld(t, false), newSpillWorld(t, true)
		rng := rand.New(rand.NewSource(seed))
		var live []cluster.VMID
		for op := 0; op < ops; op++ {
			if op == ops/2 {
				home := int(prod.ring.ClosestLive(ids.HashString(customers[0])).Addr())
				prod.restart(t, home)
				orc.restart(t, home)
			}
			if len(live) > 0 && rng.Intn(4) == 0 {
				k := rng.Intn(len(live))
				prod.cl.Destroy(live[k])
				orc.cl.Destroy(live[k])
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				continue
			}
			c := customers[0]
			if rng.Intn(2) == 0 {
				c = customers[rng.Intn(len(customers))]
			}
			n := 1 + rng.Intn(12)
			mbps := float64(100 + 50*rng.Intn(4))
			var pv, ov []*cluster.VM
			for i := 0; i < n; i++ {
				a, err := prod.cl.CreateVM(c, bwRes(mbps), bwRes(2*mbps))
				if err != nil {
					t.Fatal(err)
				}
				b, _ := orc.cl.CreateVM(c, bwRes(mbps), bwRes(2*mbps))
				pv, ov = append(pv, a), append(ov, b)
			}
			from := len(prod.outcomes)
			prod.boot(pv)
			orc.boot(ov)
			if len(prod.outcomes) != len(orc.outcomes) {
				t.Fatalf("seed %d op %d: %d answers, oracle %d", seed, op, len(prod.outcomes), len(orc.outcomes))
			}
			for i := from; i < len(prod.outcomes); i++ {
				if prod.outcomes[i] != orc.outcomes[i] {
					t.Fatalf("seed %d op %d: answer %+v, oracle %+v", seed, op, prod.outcomes[i], orc.outcomes[i])
				}
				if !prod.outcomes[i].failed {
					live = append(live, prod.outcomes[i].vm)
				}
			}
		}
		if len(prod.log) != len(orc.log) {
			t.Fatalf("seed %d: %d boot-query messages, oracle %d", seed, len(prod.log), len(orc.log))
		}
		for i := range prod.log {
			if prod.log[i] != orc.log[i] {
				t.Fatalf("seed %d: message %d is %+v, oracle %+v", seed, i, prod.log[i], orc.log[i])
			}
		}
		var pb, ob int
		for a := 0; a < prod.cl.Size(); a++ {
			pb += prod.ring.Network().CountersOf(simnet.Addr(a)).BytesSent
			ob += orc.ring.Network().CountersOf(simnet.Addr(a)).BytesSent
		}
		if pb != ob {
			t.Fatalf("seed %d: %d bytes on the wire, oracle %d", seed, pb, ob)
		}
		if prod.d.Timeouts() != 0 {
			t.Fatalf("seed %d: %d timeouts; the oracle does not model them", seed, prod.d.Timeouts())
		}
		if prod.maxVisited <= 64 {
			t.Errorf("seed %d: longest walk visited %d servers; the stream must cross a visited-set word", seed, prod.maxVisited)
		}
		if prod.freshWide == 0 {
			t.Errorf("seed %d: no pooled envelope was reused after a wide walk", seed)
		}
		placed, mean, max, fails := prod.d.Stats()
		t.Logf("seed %d: %d placed, %d failed, hops mean %.1f max %d, longest walk %d, %d messages",
			seed, placed, fails, mean, max, prod.maxVisited, len(prod.log))
	}
}

// TestEnvelopeResetClearsVisitedSet checks the pooled envelope's visited
// set directly: a reset after a walk across many words leaves no bit set,
// keeps the grown set for reuse, and the next walk starts from empty.
func TestEnvelopeResetClearsVisitedSet(t *testing.T) {
	q := acquireQuery()
	for a := simnet.Addr(0); a < 300; a += 3 {
		q.visit(a)
	}
	q.visit(4100)
	for _, a := range []simnet.Addr{0, 3, 63, 297, 4100} {
		if !q.visited(a) {
			t.Fatalf("address %d not visited", a)
		}
	}
	for _, a := range []simnet.Addr{1, 64, 298, 4099, 4101, 1 << 20} {
		if q.visited(a) {
			t.Fatalf("address %d visited", a)
		}
	}
	words := len(q.seen)
	q.reset()
	if len(q.seen) != words {
		t.Fatalf("reset shrank the visited set from %d to %d words", words, len(q.seen))
	}
	for k, word := range q.seen {
		if word != 0 {
			t.Fatalf("word %d holds %#x after reset", k, word)
		}
	}
	if len(q.Visited) != 0 || q.Deadline != 0 {
		t.Fatalf("reset left visited list %v, deadline %v", q.Visited, q.Deadline)
	}
	q.visit(5)
	if !q.visited(5) || q.visited(4100) || q.WireSize() != 64+20+16 {
		t.Fatalf("reused envelope: visited(5)=%v visited(4100)=%v wire %d", q.visited(5), q.visited(4100), q.WireSize())
	}
	releaseQuery(q)
}
