package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"vbundle/internal/core"
	"vbundle/internal/metrics"
	"vbundle/internal/rebalance"
)

// MessageOverheadParams configures the Fig. 15 experiment: the CDF of
// per-host messages (and bytes) per round while the whole v-Bundle stack —
// Pastry maintenance, the aggregation framework, and the rebalancer — runs.
type MessageOverheadParams struct {
	// Sizes are the ring sizes to sweep (paper: 512 and 1024).
	Sizes []int
	// Round is the measurement window; maintenance and aggregation are
	// aligned to it.
	Round time.Duration
	// VMsPerServer seeds a modest load so the rebalancer has work.
	VMsPerServer int
	// Parallelism caps the worker goroutines running the Sizes sweep
	// (0 = GOMAXPROCS, 1 = sequential). Every sweep point builds its own
	// full v-Bundle stack, so results are identical at any setting.
	Parallelism int
	// Run applies to every sweep point, except that only the largest one
	// records and is audited.
	Run
}

func (p MessageOverheadParams) withDefaults() MessageOverheadParams {
	if len(p.Sizes) == 0 {
		p.Sizes = []int{512, 1024}
	}
	if p.Round == 0 {
		p.Round = time.Minute
	}
	if p.VMsPerServer == 0 {
		p.VMsPerServer = 5
	}
	return p
}

// MessageOverheadPoint is one ring size's per-host distribution.
type MessageOverheadPoint struct {
	Servers int
	// Msgs and KB are per-host messages and kilobytes sent per round.
	Msgs, KB metrics.CDF
}

// MessageOverheadOutcome is the Fig. 15 sweep.
type MessageOverheadOutcome struct {
	Params MessageOverheadParams
	Points []MessageOverheadPoint
	// Observed is the largest sweep point's.
	Observed `json:"-"`
}

// RunMessageOverhead executes the sweep. Ring sizes are independent trials
// on private stacks, so they run concurrently under internal/parallel with
// results bit-identical to the sequential loop.
func RunMessageOverhead(p MessageOverheadParams) (*MessageOverheadOutcome, error) {
	p = p.withDefaults()
	points, o, err := sweepSizes(p.Run, p.Sizes, p.Parallelism, p.point)
	if err != nil {
		return nil, err
	}
	return &MessageOverheadOutcome{Params: p, Points: points, Observed: o}, nil
}

// point measures one ring size on a private v-Bundle stack.
func (p MessageOverheadParams) point(n int, r Run) (MessageOverheadPoint, Observed, error) {
	spec := ScaledSpec(n)
	spec.LANHop = time.Millisecond
	vb, o, err := r.Build(core.Options{
		Topology: spec,
		Rebalance: rebalance.Config{
			Threshold:         0.183,
			UpdateInterval:    p.Round,
			RebalanceInterval: 5 * p.Round,
		},
	})
	if err != nil {
		return MessageOverheadPoint{}, Observed{}, err
	}
	rng := rand.New(rand.NewSource(r.Seed + int64(n)))
	if err := seedSkewedLoad(vb, p.VMsPerServer, 0.6, 0.4, rng); err != nil {
		return MessageOverheadPoint{}, Observed{}, err
	}
	// Pastry ring maintenance participates in the per-round budget.
	vb.Ring.StartMaintenance()
	vb.Workloads.Start(p.Round)
	vb.StartServices()

	// Warm up: trees built, roles settled.
	vb.RunFor(3 * p.Round)
	vb.Ring.Network().ResetCounters()
	vb.RunFor(p.Round)

	pt := MessageOverheadPoint{Servers: vb.Topo.Servers()}
	for _, c := range vb.Ring.Network().AllCounters() {
		pt.Msgs.Add(float64(c.MsgsSent))
		pt.KB.Add(float64(c.BytesSent) / 1024)
	}

	vb.StopServices()
	vb.Workloads.Stop()
	vb.Ring.StopMaintenance()
	return pt, o, nil
}

// Report renders the Fig. 15 percentiles.
func (o *MessageOverheadOutcome) Report(w io.Writer) {
	writeHeader(w, "Fig 15", fmt.Sprintf("per-host overhead per %s round (maintenance + aggregation + v-Bundle)", o.Params.Round))
	fmt.Fprintf(w, "%-8s %-10s %-10s %-10s %-10s %-10s\n", "servers", "msg p50", "msg p90", "msg p99", "KB p50", "KB p90")
	for i := range o.Points {
		pt := &o.Points[i]
		fmt.Fprintf(w, "%-8d %-10.0f %-10.0f %-10.0f %-10.1f %-10.1f\n",
			pt.Servers,
			pt.Msgs.Quantile(0.5), pt.Msgs.Quantile(0.9), pt.Msgs.Quantile(0.99),
			pt.KB.Quantile(0.5), pt.KB.Quantile(0.9))
	}
	if len(o.Points) >= 2 {
		first, last := &o.Points[0], &o.Points[len(o.Points)-1]
		fmt.Fprintf(w, "p90 growth %d→%d servers: %.0f → %.0f msgs (paper: logarithmic growth, 90%% < 140 msg/round at 1024)\n",
			first.Servers, last.Servers, first.Msgs.Quantile(0.9), last.Msgs.Quantile(0.9))
	}
}
