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
	"vbundle/internal/topology"
)

// ResilienceParams configures the fault-injection variant of the Fig. 9
// rebalancing experiment: the same skewed load, but run over a lossy
// network with servers killed mid-run. It measures what the paper's
// evaluation assumes implicitly — that the shed/receive protocol neither
// stalls nor leaks receiver-side reservations when messages vanish.
type ResilienceParams struct {
	// Spec is the datacenter; defaults to a ≈300-server slice so a whole
	// loss sweep stays cheap.
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
	// Heartbeat drives Pastry/Scribe self-repair (needed under loss).
	Heartbeat time.Duration
	// Duration is the rebalancing phase length.
	Duration time.Duration
	// SampleEvery is the SD time-series sampling period.
	SampleEvery time.Duration
	// DropRate is the independent per-message loss probability (0–1).
	DropRate float64
	// KillReceivers is how many current receivers to kill at KillAt.
	KillReceivers int
	// KillAt is when the kills happen; defaults to Duration/3.
	KillAt time.Duration
	Run
}

func (p ResilienceParams) withDefaults() ResilienceParams {
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
	if p.KillAt == 0 {
		p.KillAt = p.Duration / 3
	}
	return p
}

// ResilienceOutcome reports convergence and leak accounting for one run.
type ResilienceOutcome struct {
	Params ResilienceParams
	// Killed lists the servers taken down at KillAt.
	Killed []int
	// BeforeSD and AfterSD are utilization standard deviations among the
	// servers that stay alive.
	BeforeSD, AfterSD float64
	// SD is the live-server SD time series.
	SD metrics.TimeSeries
	// Converged reports whether the SD settled; ConvergenceTime is the
	// first sample after which it never left a small band around AfterSD.
	Converged       bool
	ConvergenceTime time.Duration
	// Leaked counts receiver-side reservations still held after the
	// protocol stopped and every lease had time to run out. The whole
	// point of the exercise: this must be zero.
	Leaked int
	// Reserve is the cluster-wide reservation protocol accounting.
	Reserve rebalance.ReserveStats
	// AnycastRetries and OrphanAccepts count the scribe-level recoveries.
	AnycastRetries, OrphanAccepts int
	// Migrations/MigrationsCompleted count rebalancing activity; the
	// FailedDead pair counts migrations aborted against dead endpoints.
	Migrations, MigrationsCompleted  int
	FailedDeadDest, FailedDeadSource int
	Observed                         `json:"-"`
}

// liveSD is the utilization standard deviation over servers still alive.
func liveSD(vb *core.VBundle) float64 {
	var s metrics.Stats
	for i, u := range vb.UtilizationSnapshot() {
		if vb.Ring.Network().Alive(vb.Ring.Node(i).Addr()) {
			s.Add(u)
		}
	}
	return s.Std()
}

// RunResilience executes one fault-injection run.
func RunResilience(p ResilienceParams) (*ResilienceOutcome, error) {
	p = p.withDefaults()
	vb, o, err := p.Build(core.Options{
		Topology:    p.Spec,
		MessageLoss: p.DropRate,
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

	out := &ResilienceOutcome{Params: p, Observed: o}
	out.BeforeSD = liveSD(vb)
	sample := func() { out.SD.Add(vb.Now(), liveSD(vb)) }
	sample()
	sampler := vb.Engine.EveryGlobal(p.SampleEvery, sample)

	vb.Workloads.Start(p.UpdateInterval)
	if p.DropRate > 0 || p.KillReceivers > 0 {
		vb.StartMaintenance(p.Heartbeat)
	}
	vb.StartServices()

	vb.RunFor(p.KillAt)
	for i := 0; i < vb.Ring.Size() && len(out.Killed) < p.KillReceivers; i++ {
		if vb.Rebalancer.Agent(i).Role() == rebalance.RoleReceiver {
			vb.Ring.Network().Kill(vb.Ring.Node(i).Addr())
			out.Killed = append(out.Killed, i)
		}
	}
	if rest := p.Duration - p.KillAt; rest > 0 {
		vb.RunFor(rest)
	}

	vb.StopServices()
	if p.DropRate > 0 || p.KillReceivers > 0 {
		vb.StopMaintenance()
	}
	vb.Workloads.Stop()
	sampler.Stop()
	// Quiesce with a bounded run, not a full drain: a loss-damaged
	// aggregation tree can bounce repair traffic indefinitely. The grace
	// period covers release retries plus a full lease term, so anything
	// still reserved afterwards is a genuine leak.
	vb.RunFor(p.LeaseDuration + p.UpdateInterval)

	out.AfterSD = liveSD(vb)
	out.Converged, out.ConvergenceTime = convergencePoint(out.SD, out.AfterSD)
	out.Leaked = vb.Rebalancer.LeakedReservations()
	out.Reserve = vb.Rebalancer.ReserveStats()
	for _, s := range vb.Scribes {
		r, o := s.AnycastStats()
		out.AnycastRetries += r
		out.OrphanAccepts += o
	}
	out.Migrations = vb.Rebalancer.MigrationsTriggered()
	st := vb.Migration.Stats()
	out.MigrationsCompleted = st.Completed
	out.FailedDeadDest = st.FailedDeadDest
	out.FailedDeadSource = st.FailedDeadSource
	return out, nil
}

// convergencePoint finds the first sample after which the SD stays within
// a small band of its final value — the run's settling time.
func convergencePoint(series metrics.TimeSeries, final float64) (bool, time.Duration) {
	pts := series.Points()
	if len(pts) == 0 {
		return false, 0
	}
	band := final + 0.02
	settle := -1
	for i := len(pts) - 1; i >= 0; i-- {
		if pts[i].V > band {
			break
		}
		settle = i
	}
	if settle < 0 {
		return false, 0
	}
	return true, pts[settle].T
}

// RunResilienceSweep runs one RunResilience per variant (typically a loss
// sweep) across workers goroutines, preserving variant order.
func RunResilienceSweep(variants []ResilienceParams, workers int) ([]*ResilienceOutcome, error) {
	return parallel.Map(len(variants), workers, func(i int) (*ResilienceOutcome, error) {
		return RunResilience(variants[i])
	})
}

// WriteResilience renders one run's verdict.
func (o *ResilienceOutcome) WriteResilience(w io.Writer) {
	p := o.Params
	writeHeader(w, "Resilience", fmt.Sprintf("%d servers, %.1f%% loss, %d receiver kill(s) at %s",
		p.Spec.Racks*p.Spec.ServersPerRack, p.DropRate*100, len(o.Killed), fmtDur(p.KillAt)))
	conv := "did not settle"
	if o.Converged {
		conv = fmt.Sprintf("settled at %s", fmtDur(o.ConvergenceTime))
	}
	fmt.Fprintf(w, "SD %.4f → %.4f (%s); migrations=%d (completed %d, dead-dest %d, dead-src %d)\n",
		o.BeforeSD, o.AfterSD, conv, o.Migrations, o.MigrationsCompleted, o.FailedDeadDest, o.FailedDeadSource)
	fmt.Fprintf(w, "reservations: accepted=%d renewed=%d released=%d expired=%d orphan-released=%d dup=%d unknown=%d\n",
		o.Reserve.Accepted, o.Reserve.Renewed, o.Reserve.Released, o.Reserve.Expired,
		o.Reserve.OrphanReleases, o.Reserve.DuplicateRelease, o.Reserve.UnknownRelease)
	fmt.Fprintf(w, "anycast retries=%d orphan accepts=%d; leaked reservations at quiesce: %d\n",
		o.AnycastRetries, o.OrphanAccepts, o.Leaked)
}

// WriteResilienceTable renders a loss-sweep summary, one row per run.
func WriteResilienceTable(w io.Writer, outs []*ResilienceOutcome) {
	writeHeader(w, "Resilience sweep", "convergence and reservation leaks vs message loss")
	fmt.Fprintf(w, "%-6s %-6s %-9s %-9s %-11s %-7s %-8s %-8s %-7s\n",
		"loss", "kills", "SD-pre", "SD-post", "settled", "migr", "retries", "orphans", "leaked")
	for _, o := range outs {
		conv := "never"
		if o.Converged {
			conv = fmtDur(o.ConvergenceTime)
		}
		fmt.Fprintf(w, "%-6s %-6d %-9.4f %-9.4f %-11s %-7d %-8d %-8d %-7d\n",
			fmt.Sprintf("%.1f%%", o.Params.DropRate*100), len(o.Killed),
			o.BeforeSD, o.AfterSD, conv, o.MigrationsCompleted,
			o.AnycastRetries, o.OrphanAccepts, o.Leaked)
	}
}
