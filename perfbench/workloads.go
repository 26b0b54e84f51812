package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"

	"vbundle/internal/aggregation"
	"vbundle/internal/audit"
	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/experiments"
	"vbundle/internal/ids"
	"vbundle/internal/obs"
	"vbundle/internal/pastry"
	"vbundle/internal/placement"
	"vbundle/internal/rebalance"
	"vbundle/internal/scribe"
	"vbundle/internal/serve"
	"vbundle/internal/sim"
	"vbundle/internal/simnet"
	"vbundle/internal/topology"
	"vbundle/internal/workload"
)

// workloads maps each benchmark workload to its body. Every body builds its
// stack from the public constructors, times set-up phases and RunFor slices
// through the span log, and runs on the serial engine (Shards 0).
var workloads = map[string]func(*child) error{
	"rebalance-3000": runRebalance,
	"overlay-8192":   runOverlay,
	"serve-2048":     runServe,
	"ring-131072":    runRing,
}

// child is one workload execution in its own process.
type child struct {
	seed int64
	// tr is the metrics-only recorder, set only in the traced run.
	tr  *obs.Trace
	log *spanLog

	windowStart, windowEnd time.Time
	heapAfterSetup         float64
	// cpuAtEnd and runtimeAtEnd are read when the measured window closes.
	cpuAtEnd     float64
	runtimeAtEnd map[string]float64

	ops, failed int
	checks      []string
	// modeled holds every deterministic output, in the order the workload
	// set them; all of it feeds the fingerprint.
	modeled  []namedValue
	snapshot hash.Hash
	auditor  *audit.Auditor
}

type namedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func newChild(seed int64, traced bool) *child {
	c := &child{seed: seed, log: newSpanLog(), snapshot: sha256.New()}
	if traced {
		c.tr = obs.Config{Metrics: true}.New()
	}
	return c
}

func (c *child) set(name string, v float64) { c.modeled = append(c.modeled, namedValue{name, v}) }

func (c *child) check(ok bool, format string, args ...any) {
	if !ok {
		c.checks = append(c.checks, fmt.Sprintf(format, args...))
	}
}

// auditConfig turns the auditor on in the traced run only.
func (c *child) auditConfig(every time.Duration) audit.Config {
	if c.tr == nil {
		return audit.Config{}
	}
	return audit.Config{Every: every}
}

// startWindow marks the end of set-up: the next simulated event belongs to
// the measured window. A collection at the boundary charges set-up's
// garbage to set-up, so whether a GC cycle happens to fall inside the
// window does not decide run_s, and makes the live heap exact.
func (c *child) startWindow() {
	runtime.GC()
	c.heapAfterSetup = readRuntime()["heap_live_mb"]
	c.windowStart = time.Now()
}

func (c *child) endWindow() {
	c.windowEnd = time.Now()
	c.cpuAtEnd = cpuSeconds()
	c.runtimeAtEnd = readRuntime()
}

// fingerprint hashes every modeled output and the snapshot the workload
// wrote (final placements, utilizations, per-host message counters).
func (c *child) fingerprint() string {
	h := sha256.New()
	for _, nv := range c.modeled {
		fmt.Fprintf(h, "%s=%s\n", nv.Name, strconv.FormatFloat(nv.Value, 'g', -1, 64))
	}
	h.Write(c.snapshot.Sum(nil))
	return fmt.Sprintf("%x", h.Sum(nil))
}

func (c *child) snapInt(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	c.snapshot.Write(b[:])
}

func (c *child) snapFloat(v float64) { c.snapInt(int64(math.Float64bits(v))) }

// snapCluster adds every VM's location and every server's utilization.
func (c *child) snapCluster(cl *cluster.Cluster) {
	cl.EachVM(func(vm *cluster.VM) {
		s, ok := cl.LocationOf(vm.ID)
		if !ok {
			s = -1
		}
		c.snapInt(int64(vm.ID))
		c.snapInt(int64(s))
	})
	for _, u := range cl.UtilizationSnapshot() {
		c.snapFloat(u)
	}
}

// netOutputs adds the per-host message counters to the snapshot and sets
// host_msgs_p90 (messages a host sent since the last counter reset, p90
// over hosts) and msgs_per_op (all those messages over c.ops).
func (c *child) netOutputs(net *simnet.Network) (total int) {
	counters := net.AllCounters()
	sent := make([]int, len(counters))
	bytes := 0
	for i, k := range counters {
		c.snapInt(int64(k.MsgsSent))
		c.snapInt(int64(k.BytesSent))
		sent[i] = k.MsgsSent
		total += k.MsgsSent
		bytes += k.BytesSent
	}
	sort.Ints(sent)
	c.set("host_msgs_p90", float64(nearestRank(sent, 0.90)))
	c.set("simnet.msgs", float64(total))
	c.set("simnet.kb", float64(bytes)/1024)
	c.set("msgs_per_op", float64(total)/float64(max(c.ops, 1)))
	return total
}

// nearestRank returns the q-quantile of sorted values by nearest rank.
func nearestRank(sorted []int, q float64) int {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// finish sets success_frac from ops/failed; a failed check fails every
// operation of the run.
func (c *child) finish() {
	if c.auditor != nil {
		c.check(c.auditor.Violations() == 0, "audit: %d invariant violations", c.auditor.Violations())
	}
	if len(c.checks) > 0 {
		c.failed = c.ops
	}
	c.set("success_frac", 1-float64(c.failed)/float64(max(c.ops, 1)))
}

// seedSkewedLoad provisions vmsPerServer VMs on every server so that its
// bandwidth utilization is drawn uniformly from mean±spread: the
// imbalanced start of the paper's Fig. 9 (the same generator the
// experiments package uses).
func seedSkewedLoad(vb *core.VBundle, vmsPerServer int, mean, spread float64, rng *rand.Rand) error {
	rsv := cluster.Resources{CPU: 0.2, MemMB: 128, BandwidthMbps: 10}
	lim := cluster.Resources{CPU: 4, MemMB: 128, BandwidthMbps: vb.Topo.NICMbps()}
	for s := 0; s < vb.Cluster.Size(); s++ {
		target := mean + (rng.Float64()*2-1)*spread
		if target < 0.02 {
			target = 0.02
		}
		perVM := target * vb.Cluster.Server(s).Capacity.BandwidthMbps / float64(vmsPerServer)
		for v := 0; v < vmsPerServer; v++ {
			vm, err := vb.Cluster.CreateVM("bundle", rsv, lim)
			if err != nil {
				return err
			}
			if err := vb.Cluster.Place(vm, s); err != nil {
				return err
			}
			vm.Demand.BandwidthMbps = perVM
			vb.Workloads.Attach(vm.ID, workload.Flat(perVM))
		}
	}
	return nil
}

// sample is the Fig. 10/11 sampling call: utilization SD and bandwidth
// satisfaction, timed as sample.calls.
func (c *child) sample(vb *core.VBundle) (sd float64, rep core.BandwidthReport) {
	c.log.do("sample.calls", func() {
		sd = vb.UtilizationStdDev()
		rep = vb.BandwidthSatisfaction()
	})
	return sd, rep
}

// clusterOutputs sets the end-of-run cluster outputs shared by the
// workloads that carry VMs.
func (c *child) clusterOutputs(vb *core.VBundle, sd float64, rep core.BandwidthReport) {
	c.set("cluster.sd_after", sd)
	sat := 1.0
	if rep.DemandMbps > 0 {
		sat = rep.SatisfiedMbps / rep.DemandMbps
	}
	c.set("tcshape.bw_satisfaction", sat)
	c.check(vb.Rebalancer.LeakedReservations() == 0, "rebalance: %d leaked reservations", vb.Rebalancer.LeakedReservations())
	c.snapCluster(vb.Cluster)
}

// rebalanceOutputs sets the rebalancer and migration counts.
func (c *child) rebalanceOutputs(vb *core.VBundle) {
	q, m := vb.Rebalancer.QueriesSent(), vb.Rebalancer.MigrationsTriggered()
	c.set("rebalance.queries", float64(q))
	c.set("rebalance.migrations", float64(m))
	if q > 0 {
		c.set("rebalance.useful_frac", float64(m)/float64(q))
	}
	c.set("migration.completed", float64(vb.Migration.Stats().Completed))
}

// runRebalance is the paper's Fig. 9–11 shuffle at paper scale: 3000
// servers × 25 VMs of skewed load, threshold 0.183, 5 m/25 m intervals,
// 75 virtual minutes sampled every minute, then a drain.
func runRebalance(c *child) error {
	var vb *core.VBundle
	var err error
	c.log.do("setup.core_new", func() {
		vb, err = core.New(core.Options{
			Topology: experiments.PaperSpec(),
			Seed:     c.seed,
			Trace:    c.tr,
			Rebalance: rebalance.Config{
				Threshold:         0.183,
				UpdateInterval:    5 * time.Minute,
				RebalanceInterval: 25 * time.Minute,
			},
		})
	})
	if err != nil {
		return err
	}
	c.log.do("setup.load", func() {
		err = seedSkewedLoad(vb, 25, 0.6226, 0.47, rand.New(rand.NewSource(c.seed+1)))
	})
	if err != nil {
		return err
	}
	c.auditor = vb.AttachAudit(c.auditConfig(time.Minute))
	sdBefore, _ := c.sample(vb)
	vb.Workloads.Start(5 * time.Minute)
	vb.StartServices()

	c.startWindow()
	var sd float64
	var rep core.BandwidthReport
	run := c.log.begin("run")
	for i := 0; i < 75; i++ {
		c.log.do("run.minute", func() { vb.RunFor(time.Minute) })
		sd, rep = c.sample(vb)
		// The Fig. 10/11 series are outputs too.
		c.snapFloat(sd)
		c.snapFloat(rep.DemandMbps)
		c.snapFloat(rep.SatisfiedMbps)
	}
	vb.StopServices()
	vb.Workloads.Stop()
	c.log.do("run.drain", vb.Engine.Run)
	c.log.end(run)
	c.endWindow()

	c.ops = vb.Rebalancer.MigrationsTriggered()
	c.check(c.ops > 0, "rebalance: no migration was triggered")
	c.failed = c.ops - vb.Migration.Stats().Completed
	c.set("cluster.sd_before", sdBefore)
	c.clusterOutputs(vb, sd, rep)
	c.rebalanceOutputs(vb)
	c.netOutputs(vb.Ring.Network())
	c.finish()
	return nil
}

// runOverlay is the Fig. 15 stack at 8192 servers: Pastry maintenance,
// aggregation and the rebalancer in 1-minute rounds over 5 VMs per server.
// Three warm-up rounds, one measured round (per-host messages), a drain.
func runOverlay(c *child) error {
	const n = 8192
	round := time.Minute
	spec := experiments.ScaledSpec(n)
	spec.LANHop = time.Millisecond
	var vb *core.VBundle
	var err error
	c.log.do("setup.core_new", func() {
		vb, err = core.New(core.Options{
			Topology: spec,
			Seed:     c.seed,
			Trace:    c.tr,
			Rebalance: rebalance.Config{
				Threshold:         0.183,
				UpdateInterval:    round,
				RebalanceInterval: 5 * round,
			},
		})
	})
	if err != nil {
		return err
	}
	c.log.do("setup.load", func() {
		err = seedSkewedLoad(vb, 5, 0.6, 0.4, rand.New(rand.NewSource(c.seed+n)))
	})
	if err != nil {
		return err
	}
	c.auditor = vb.AttachAudit(c.auditConfig(round))
	vb.Ring.StartMaintenance()
	vb.Workloads.Start(round)
	vb.StartServices()

	c.startWindow()
	run := c.log.begin("run")
	for i := 0; i < 3; i++ {
		c.log.do("run.round", func() { vb.RunFor(round) })
		c.sample(vb)
	}
	vb.Ring.Network().ResetCounters()
	c.log.do("run.round", func() { vb.RunFor(round) })
	sd, rep := c.sample(vb)
	// The measured round's counters, before the drain adds to them.
	c.ops = vb.Topo.Servers()
	c.netOutputs(vb.Ring.Network())
	vb.StopServices()
	vb.Workloads.Stop()
	vb.Ring.StopMaintenance()
	c.log.do("run.drain", vb.Engine.Run)
	c.log.end(run)
	c.endWindow()

	c.clusterOutputs(vb, sd, rep)
	c.rebalanceOutputs(vb)
	c.finish()
	return nil
}

// runServe is the open-loop serving stream at 2048 servers: Poisson boot
// requests at 100/s for 60 virtual seconds from the default customer mix,
// terminates at 0.9 of the booted-VM rate, resolution cache and batching
// on, 2 VMs per customer prewarmed (set-up), then a 2-minute drain.
func runServe(c *child) error {
	const (
		rate     = 100.0
		stream   = 60 * time.Second
		drain    = 2 * time.Minute
		slice    = 10 * time.Second
		prewarm  = 2
		termFrac = 0.9
	)
	var vb *core.VBundle
	var fe *serve.Frontend
	var err error
	c.log.do("setup.core_new", func() {
		vb, err = core.New(core.Options{Topology: experiments.ScaledSpec(2048), Seed: c.seed, Trace: c.tr})
		if err == nil {
			fe, err = serve.New(vb, serve.Config{Cache: true, Batch: true})
		}
	})
	if err != nil {
		return err
	}
	mix, err := workload.NewMix(experiments.DefaultServeMix())
	if err != nil {
		return err
	}
	c.auditor = vb.AttachAudit(c.auditConfig(time.Second))
	rsv := cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: 100}
	lim := cluster.Resources{CPU: 2, MemMB: 128, BandwidthMbps: 200}
	c.log.do("setup.load", func() {
		mix.EachCustomer(func(customer string, _ workload.CustomerClass) {
			if err == nil {
				_, err = fe.Boot(customer, prewarm, rsv, lim)
			}
		})
		vb.RunFor(5 * time.Second)
	})
	if err != nil {
		return fmt.Errorf("prewarm: %w", err)
	}
	pre := fe.Stats()
	vb.Ring.Network().ResetCounters()

	// Independent seeded streams, drawn only in global-band callbacks.
	eng := vb.Engine
	start := vb.Now()
	end := start + stream
	bootArr := workload.FlashCrowd{Base: rate}
	bootRng := rand.New(rand.NewSource(c.seed*6364136223846793005 + 1442695040888963407))
	termRng := rand.New(rand.NewSource(c.seed*2862933555777941757 + 3037000493))
	var bootErr error
	var boot func()
	boot = func() {
		customer, group := mix.Pick(bootRng)
		if _, err := fe.Boot(customer, group, rsv, lim); err != nil && bootErr == nil {
			bootErr = err
		}
		if gap := bootArr.Next(eng.Now(), bootRng); eng.Now()+gap < end {
			eng.AfterGlobal(gap, boot)
		}
	}
	termArr := workload.Poisson{PerSec: rate * mix.MeanGroup() * termFrac}
	var term func()
	term = func() {
		customer, _ := mix.Pick(termRng)
		fe.Terminate(customer)
		if gap := termArr.Next(eng.Now(), termRng); eng.Now()+gap < end {
			eng.AfterGlobal(gap, term)
		}
	}

	c.startWindow()
	run := c.log.begin("run")
	eng.AfterGlobal(bootArr.Next(start, bootRng), boot)
	eng.AfterGlobal(termArr.Next(start, termRng), term)
	for t := time.Duration(0); t < stream+drain; t += slice {
		c.log.do("run.slice", func() { vb.RunFor(slice) })
	}
	c.log.end(run)
	c.endWindow()
	sd, rep := c.sample(vb)

	st := fe.Stats()
	placed := st.Placed - pre.Placed
	c.ops = st.Requested - pre.Requested
	c.failed = st.Shed - pre.Shed + st.Failed - pre.Failed + fe.Unresolved() + vb.Rebalancer.LeakedReservations()
	c.check(c.ops > 0, "serve: no boot was requested")
	c.check(bootErr == nil, "serve: boot request error: %v", bootErr)
	c.check(fe.Unresolved() == 0, "serve: %d unresolved boots", fe.Unresolved())
	c.check(placed > 0, "serve: nothing placed")
	lat := fe.Latency()
	c.set("serve.placements", float64(placed))
	c.set("serve.virt_p50_ms", float64(lat.Quantile(0.50))/1e6)
	c.set("serve.virt_p99_ms", float64(lat.Quantile(0.99))/1e6)
	c.set("serve.virt_p999_ms", float64(lat.Quantile(0.999))/1e6)
	c.set("serve.latency_samples", float64(lat.Count()))
	c.set("serve.requested", float64(c.ops))
	c.set("serve.terminated", float64(st.Terminated))
	c.set("serve.queries", float64(st.Queries))
	if st.Batches > 0 {
		c.set("serve.vms_per_batch", float64(st.BatchedVMs)/float64(st.Batches))
	}
	if cs := fe.Cache().Stats(); cs.Hits+cs.Misses > 0 {
		c.set("serve.cache_hit_frac", float64(cs.Hits)/float64(cs.Hits+cs.Misses))
	}
	dht := vb.Placer.(*placement.DHT)
	_, meanHops, maxHops, _ := dht.Stats()
	c.set("placement.hops_mean", meanHops)
	c.set("placement.hops_p99", float64(dht.HopQuantile(0.99)))
	c.set("placement.hops_max", float64(maxHops))
	c.set("placement.timeouts", float64(dht.Timeouts()))
	// msgs_per_op counts per requested VM; serve.msgs_per_placement is
	// the experiments package's figure (per stream placement).
	msgs := c.netOutputs(vb.Ring.Network())
	c.set("serve.msgs_per_placement", float64(msgs)/float64(max(placed, 1)))
	c.clusterOutputs(vb, sd, rep)
	c.finish()
	return nil
}

// runRing is a Fig. 14 rung at 131072 servers: the ring, scribe and
// aggregation stack built by hand (set-up dominates), the aggregation tree
// built, then rounds in which every node reports a fresh seeded load and the
// root measures leaf-to-root latency. One round takes a few tenths of a
// second and varies by a fifth from round to round, so the window holds
// several.
func runRing(c *child) error {
	const (
		n      = 131072
		topic  = "BW_Demand"
		rounds = 4
	)
	var (
		engine   *sim.Engine
		ring     *pastry.Ring
		scribes  []*scribe.Scribe
		managers []*aggregation.Manager
		err      error
	)
	c.log.do("setup.core_new", func() {
		spec := experiments.ScaledSpec(n)
		spec.LANHop = 10 * time.Millisecond
		var topo *topology.Topology
		if topo, err = topology.New(spec); err != nil {
			return
		}
		engine = sim.NewEngine(c.seed)
		sim.AttachObs(engine, c.tr)
		var opts []simnet.Option
		if c.tr != nil {
			opts = append(opts, simnet.WithTrace(c.tr))
		}
		ring = pastry.NewRing(engine, topo, pastry.Config{}, pastry.HierarchyAssigner, opts...)
		c.log.do("setup.ring_build", ring.BuildStatic)
		c.log.do("setup.overlay_apps", func() {
			scribes = make([]*scribe.Scribe, ring.Size())
			managers = make([]*aggregation.Manager, ring.Size())
			for i, node := range ring.Nodes() {
				scribes[i] = scribe.New(node)
				managers[i] = aggregation.New(scribes[i], aggregation.Config{UpdateInterval: 5 * time.Minute})
			}
		})
	})
	if err != nil {
		return err
	}
	c.auditor = audit.Attach(c.auditConfig(10*time.Millisecond), audit.Targets{
		Engine: engine, Network: ring.Network(), Ring: ring, Trace: c.tr,
	})
	c.log.do("setup.load", func() {
		for _, m := range managers {
			m.Subscribe(topic, nil)
		}
		engine.Run()
	})
	ring.Network().ResetCounters()

	// Each node reports a seeded integer load, so the root's sum is exact.
	rng := rand.New(rand.NewSource(c.seed))
	values := make([][]float64, rounds)
	var want aggregation.Aggregate
	for r := range values {
		values[r] = make([]float64, len(managers))
		want = aggregation.Aggregate{}
		for i := range values[r] {
			values[r][i] = float64(1 + rng.Intn(1000))
			want = want.Fold(aggregation.Sample(values[r][i]))
		}
	}

	c.startWindow()
	c.log.do("run", func() {
		for _, vs := range values {
			c.log.do("run.round", func() {
				for i, m := range managers {
					m.SetLocal(topic, vs[i])
				}
				engine.Run()
			})
		}
	})
	c.endWindow()

	// The root's aggregate must cover every report of the last round
	// exactly.
	var got aggregation.Aggregate
	for i, s := range scribes {
		if s.IsRoot(scribe.GroupKey(topic)) {
			managers[i].PublishNow(topic)
			if g, ok := managers[i].Global(topic); ok {
				got = g.Aggregate
			}
		}
	}
	c.check(got == want, "aggregation: root holds %+v, want %+v", got, want)
	c.set("aggregation.root_sum", got.Sum)
	c.set("aggregation.root_count", float64(got.Count))

	var raw []time.Duration
	for _, m := range managers {
		raw = append(raw, m.RootLatencies()...)
	}
	c.check(len(raw) > 0, "aggregation: no report reached the root")
	var sum, worst time.Duration
	for _, d := range raw {
		sum += d
		worst = max(worst, d)
		c.snapInt(int64(d))
	}
	c.ops = ring.Size() * rounds
	if len(raw) > 0 {
		c.set("aggregation.agg_latency_ms", float64(sum/time.Duration(len(raw)))/1e6)
	}
	c.set("aggregation.agg_latency_max_ms", float64(worst)/1e6)
	c.set("aggregation.tree_height", float64(treeHeight(scribes, scribe.GroupKey(topic))))
	c.netOutputs(ring.Network())
	c.finish()
	return nil
}

// treeHeight is the depth of the topic's Scribe tree, walked breadth-first
// from its root over the children edges.
func treeHeight(scribes []*scribe.Scribe, group ids.Id) int {
	byAddr := make([]*scribe.Scribe, len(scribes))
	root := -1
	for _, s := range scribes {
		a := int(s.Node().Addr())
		byAddr[a] = s
		if s.IsRoot(group) {
			root = a
		}
	}
	if root < 0 {
		return 0
	}
	depth := make([]int, len(scribes))
	seen := make([]bool, len(scribes))
	seen[root] = true
	queue := []int{root}
	height := 0
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		height = max(height, depth[cur])
		byAddr[cur].ForEachChild(group, func(h pastry.NodeHandle) {
			a := int(h.Addr)
			if a >= 0 && a < len(seen) && !seen[a] {
				seen[a] = true
				depth[a] = depth[cur] + 1
				queue = append(queue, a)
			}
		})
	}
	return height
}
