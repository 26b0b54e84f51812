package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"vbundle/internal/core"
	"vbundle/internal/metrics"
	"vbundle/internal/migration"
	"vbundle/internal/parallel"
	"vbundle/internal/rebalance"
	"vbundle/internal/store"
	"vbundle/internal/topology"
)

// CrashRestartParams configures the crash-restart-recover variant of the
// resilience experiment. Unlike ResilienceParams' kills (a pause: the node
// comes back with its soft state intact), these are true crashes — the
// victim's handler, leaf sets, lease tables and placement maps are
// discarded, and the node reboots from its durable store and reconciles
// with the live ring. The run's verdict is the recovery gate: no VM lost,
// no reservation leaked across the restart.
type CrashRestartParams struct {
	// Spec is the datacenter; defaults to a ≈300-server slice.
	Spec topology.Spec
	// VMsPerServer sets the load granularity.
	VMsPerServer int
	// TargetMeanUtil and UtilSpread shape the skewed load (Fig. 9).
	TargetMeanUtil, UtilSpread float64
	// Threshold is the rebalancing margin.
	Threshold float64
	// UpdateInterval and RebalanceInterval follow the paper.
	UpdateInterval, RebalanceInterval time.Duration
	// LeaseDuration bounds receiver-side reservation holds.
	LeaseDuration time.Duration
	// Heartbeat drives Pastry/Scribe self-repair.
	Heartbeat time.Duration
	// Duration is the rebalancing phase length.
	Duration time.Duration
	// SampleEvery is the SD time-series sampling period.
	SampleEvery time.Duration
	// DropRate is the independent per-message loss probability (0–1).
	DropRate float64
	// CrashNodes is how many current receivers to crash at CrashAt; each
	// reboots RestartAfter later from its durable store.
	CrashNodes int
	// CrashForever is how many additional receivers to crash with no
	// restart at all — they stay down, exercising the store-backed lease
	// audit of dead nodes.
	CrashForever int
	// CrashAt is when the crashes happen; defaults to Duration/3.
	CrashAt time.Duration
	// RestartAfter is the downtime before a crashed node reboots; defaults
	// to 2×UpdateInterval.
	RestartAfter time.Duration
	Run
}

func (p CrashRestartParams) withDefaults() CrashRestartParams {
	if p.Spec.Racks == 0 {
		p.Spec = ScaledSpec(300)
	}
	if p.VMsPerServer == 0 {
		p.VMsPerServer = 10
	}
	if p.TargetMeanUtil == 0 {
		p.TargetMeanUtil = 0.6226
	}
	if p.UtilSpread == 0 {
		p.UtilSpread = 0.47
	}
	if p.Threshold == 0 {
		p.Threshold = 0.183
	}
	if p.UpdateInterval == 0 {
		p.UpdateInterval = 5 * time.Minute
	}
	if p.RebalanceInterval == 0 {
		p.RebalanceInterval = 25 * time.Minute
	}
	if p.LeaseDuration == 0 {
		p.LeaseDuration = 10 * time.Minute
	}
	if p.Heartbeat == 0 {
		p.Heartbeat = time.Minute
	}
	if p.Duration == 0 {
		p.Duration = 75 * time.Minute
	}
	if p.SampleEvery == 0 {
		p.SampleEvery = time.Minute
	}
	if p.CrashNodes == 0 && p.CrashForever == 0 {
		p.CrashNodes = 1
	}
	if p.CrashAt == 0 {
		p.CrashAt = p.Duration / 3
	}
	if p.RestartAfter == 0 {
		p.RestartAfter = 2 * p.UpdateInterval
	}
	return p
}

// CrashRestartOutcome reports the recovery accounting for one run.
type CrashRestartOutcome struct {
	Params CrashRestartParams
	// Crashed lists the servers crashed (and later restarted) at CrashAt;
	// Dead lists the ones crashed with no restart.
	Crashed, Dead []int
	// VMsBefore and VMsAfter are the registered VM counts on either side
	// of the fault window (the workload neither boots nor destroys, so
	// they must match).
	VMsBefore, VMsAfter int
	// LostVMs counts VMs still registered but placed nowhere after the
	// quiesce — VMs lost across the restart. The gate: must be zero.
	LostVMs int
	// BeforeSD and AfterSD are utilization standard deviations among the
	// servers that end the run alive.
	BeforeSD, AfterSD float64
	// SD is the live-server SD time series.
	SD metrics.TimeSeries
	// Converged reports whether the SD settled; ConvergenceTime is the
	// first sample after which it never left a small band around AfterSD.
	Converged       bool
	ConvergenceTime time.Duration
	// RecoveryTime is how long after the restart instant the SD settled
	// (zero when it settled before the reboot finished or never settled).
	RecoveryTime time.Duration
	// Recovery is the core-level restart accounting: adopted vs released
	// leases, verified vs lost placements. LostPlacements must be zero.
	Recovery core.RecoveryStats
	// Leaked counts reservations still held after quiesce, including —
	// via the durable store — unexpired holds of nodes that stayed dead.
	// The second gate: must be zero.
	Leaked int
	// Reserve is the cluster-wide reservation protocol accounting.
	Reserve rebalance.ReserveStats
	// Migrations/MigrationsCompleted count rebalancing activity.
	Migrations, MigrationsCompleted int
	Observed                        `json:"-"`
}

// RunCrashRestart executes one crash-restart-recover run.
func RunCrashRestart(p CrashRestartParams) (*CrashRestartOutcome, error) {
	p = p.withDefaults()
	vb, o, err := p.Build(core.Options{
		Topology:    p.Spec,
		MessageLoss: p.DropRate,
		Store:       store.NewMem(),
		Rebalance: rebalance.Config{
			Threshold:         p.Threshold,
			UpdateInterval:    p.UpdateInterval,
			RebalanceInterval: p.RebalanceInterval,
			LeaseDuration:     p.LeaseDuration,
		},
		Migration: migration.Config{},
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed + 1))
	if err := seedSkewedLoad(vb, p.VMsPerServer, p.TargetMeanUtil, p.UtilSpread, rng); err != nil {
		return nil, err
	}

	out := &CrashRestartOutcome{Params: p, Observed: o}
	out.BeforeSD = liveSD(vb)
	out.VMsBefore = vb.Cluster.NumVMs()
	sample := func() { out.SD.Add(vb.Now(), liveSD(vb)) }
	sample()
	sampler := vb.Engine.EveryGlobal(p.SampleEvery, sample)

	vb.Workloads.Start(p.UpdateInterval)
	vb.StartMaintenance(p.Heartbeat)
	vb.StartServices()

	vb.RunFor(p.CrashAt)
	// Crash the nodes whose durable state is worth reconciling: first any
	// node still holding reservation leases (the crash orphans them — the
	// rejoin, or for dead nodes the store-backed audit, must clean up),
	// then current receivers, then fill the quota from the remaining nodes
	// so small topologies still run the full schedule. The DHT gateway at
	// node 0 is never a victim: the boot path's query state lives there.
	// The first CrashNodes reboot after RestartAfter; the next CrashForever
	// stay down.
	crashOne := func(i int) {
		addr := vb.Ring.Node(i).Addr()
		vb.Ring.Network().Crash(addr)
		if len(out.Crashed) < p.CrashNodes {
			out.Crashed = append(out.Crashed, i)
			vb.Engine.AtGlobal(vb.Now()+p.RestartAfter, func() {
				vb.Ring.Network().Restart(addr)
			})
		} else {
			out.Dead = append(out.Dead, i)
		}
	}
	want := p.CrashNodes + p.CrashForever
	for i := 1; i < vb.Ring.Size() && len(out.Crashed)+len(out.Dead) < want; i++ {
		if vb.Rebalancer.Agent(i).HeldLeases() > 0 {
			crashOne(i)
		}
	}
	for i := 1; i < vb.Ring.Size() && len(out.Crashed)+len(out.Dead) < want; i++ {
		a := vb.Rebalancer.Agent(i)
		if a.Role() == rebalance.RoleReceiver && vb.Ring.Network().Alive(vb.Ring.Node(i).Addr()) {
			crashOne(i)
		}
	}
	for i := 1; i < vb.Ring.Size() && len(out.Crashed)+len(out.Dead) < want; i++ {
		if vb.Ring.Network().Alive(vb.Ring.Node(i).Addr()) {
			crashOne(i)
		}
	}
	if rest := p.Duration - p.CrashAt; rest > 0 {
		vb.RunFor(rest)
	}

	vb.StopServices()
	vb.StopMaintenance()
	vb.Workloads.Stop()
	sampler.Stop()
	// Quiesce for release retries plus a full lease term: anything still
	// reserved afterwards — in a live table or in a dead node's durable
	// store — is a genuine leak.
	vb.RunFor(p.LeaseDuration + p.UpdateInterval)

	out.AfterSD = liveSD(vb)
	out.VMsAfter = vb.Cluster.NumVMs()
	out.Converged, out.ConvergenceTime = convergencePoint(out.SD, out.AfterSD)
	if rebootDone := p.CrashAt + p.RestartAfter; out.Converged && out.ConvergenceTime > rebootDone {
		out.RecoveryTime = out.ConvergenceTime - rebootDone
	}
	placed := 0
	for _, srv := range vb.Cluster.Servers() {
		placed += len(srv.VMs())
	}
	out.LostVMs = vb.Cluster.NumVMs() - placed
	out.Recovery = vb.Recovery
	out.Leaked = vb.Rebalancer.LeakedReservations()
	out.Reserve = vb.Rebalancer.ReserveStats()
	out.Migrations = vb.Rebalancer.MigrationsTriggered()
	out.MigrationsCompleted = vb.Migration.Stats().Completed
	return out, nil
}

// RunCrashRestartSweep runs one RunCrashRestart per variant across workers
// goroutines, preserving variant order.
func RunCrashRestartSweep(variants []CrashRestartParams, workers int) ([]*CrashRestartOutcome, error) {
	return parallel.Map(len(variants), workers, func(i int) (*CrashRestartOutcome, error) {
		return RunCrashRestart(variants[i])
	})
}

// GatePassed reports whether the run met the recovery gate: every VM
// accounted for and no reservation leaked across the restart.
func (o *CrashRestartOutcome) GatePassed() bool {
	return o.LostVMs == 0 && o.Recovery.LostPlacements == 0 && o.Leaked == 0 &&
		o.VMsBefore == o.VMsAfter
}

// WriteCrashRestart renders one run's verdict.
func (o *CrashRestartOutcome) WriteCrashRestart(w io.Writer) {
	p := o.Params
	writeHeader(w, "Crash-restart", fmt.Sprintf("%d servers, %.1f%% loss, %d crash(es) at %s, reboot after %s, %d left dead",
		p.Spec.Racks*p.Spec.ServersPerRack, p.DropRate*100, len(o.Crashed), fmtDur(p.CrashAt), fmtDur(p.RestartAfter), len(o.Dead)))
	conv := "did not settle"
	if o.Converged {
		conv = fmt.Sprintf("settled at %s", fmtDur(o.ConvergenceTime))
	}
	fmt.Fprintf(w, "SD %.4f → %.4f (%s, recovery %s); migrations=%d (completed %d)\n",
		o.BeforeSD, o.AfterSD, conv, fmtDur(o.RecoveryTime), o.Migrations, o.MigrationsCompleted)
	fmt.Fprintf(w, "restarts=%d blank-boots=%d leases adopted=%d released=%d; placements verified=%d stale=%d lost=%d\n",
		o.Recovery.Restarts, o.Recovery.BlankBoots, o.Recovery.AdoptedLeases, o.Recovery.ReleasedLeases,
		o.Recovery.VerifiedPlacements, o.Recovery.StalePlacements, o.Recovery.LostPlacements)
	verdict := "PASS"
	if !o.GatePassed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "VMs %d → %d (lost %d); leaked reservations at quiesce: %d — gate %s\n",
		o.VMsBefore, o.VMsAfter, o.LostVMs, o.Leaked, verdict)
}

// WriteCrashRestartTable renders a sweep summary, one row per run.
func WriteCrashRestartTable(w io.Writer, outs []*CrashRestartOutcome) {
	writeHeader(w, "Crash-restart sweep", "recovery gates vs loss and downtime")
	fmt.Fprintf(w, "%-6s %-8s %-9s %-9s %-9s %-9s %-9s %-7s %-6s %-7s %-5s\n",
		"loss", "crashes", "downtime", "SD-pre", "SD-post", "recovery", "adopted", "rel'd", "lost", "leaked", "gate")
	for _, o := range outs {
		verdict := "PASS"
		if !o.GatePassed() {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "%-6s %-8d %-9s %-9.4f %-9.4f %-9s %-9d %-7d %-6d %-7d %-5s\n",
			fmt.Sprintf("%.1f%%", o.Params.DropRate*100), len(o.Crashed)+len(o.Dead),
			fmtDur(o.Params.RestartAfter), o.BeforeSD, o.AfterSD, fmtDur(o.RecoveryTime),
			o.Recovery.AdoptedLeases, o.Recovery.ReleasedLeases, o.LostVMs, o.Leaked, verdict)
	}
}
