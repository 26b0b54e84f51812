// Package experiments contains one reproduction harness per table and
// figure of the paper's evaluation (§IV simulated experiments, §V testbed
// experiments). Each harness builds the full v-Bundle stack through the
// core package, runs the workload the paper describes, and renders the same
// rows or series the paper reports. The command-line tools under cmd/ and
// the benchmark suite in bench_test.go are thin wrappers over these
// harnesses.
package experiments

import (
	"fmt"
	"io"
	"time"

	"vbundle/internal/audit"
	"vbundle/internal/core"
	"vbundle/internal/obs"
	"vbundle/internal/parallel"
	"vbundle/internal/topology"
)

// Run is the configuration every experiment run shares. Each harness's
// Params embeds it, and cmd/ binaries fill it from the shared run flags
// (see Flags).
type Run struct {
	// Seed drives all randomness.
	Seed int64
	// Shards selects the engine mode (0 = serial reference, K ≥ 1 = K-shard
	// parallel engine); virtual-time results are identical at any setting.
	Shards int
	// Obs configures the flight recorder. The zero value records nothing;
	// recording never changes experiment metrics.
	Obs obs.Config
	// Audit configures the online invariant auditor (Every <= 0 disables).
	// Sweeps are read-only and never change experiment metrics.
	Audit audit.Config
}

// Observed is what a run leaves besides its results: its flight recorder
// (nil when Run.Obs is disabled) and its auditor (nil when Run.Audit is
// disabled). Each harness's Outcome embeds it.
type Observed struct {
	Trace *obs.Trace
	Audit *audit.Auditor
}

// Build sets the run's seed, engine mode and recorder on opts, builds the
// v-Bundle stack and attaches the run's auditor to it.
func (r Run) Build(opts core.Options) (*core.VBundle, Observed, error) {
	opts.Seed = r.Seed
	opts.Shards = r.Shards
	opts.Trace = r.Obs.New()
	vb, err := core.New(opts)
	if err != nil {
		return nil, Observed{}, err
	}
	return vb, Observed{Trace: opts.Trace, Audit: vb.AttachAudit(r.Audit)}, nil
}

// sweepSizes runs point once per ring size over workers goroutines (0 =
// GOMAXPROCS, 1 = sequential) and returns the points in size order. Every
// point builds a private stack, so results are identical at any setting.
// Only the largest size records and audits, and its Observed is the one
// returned: tracing the smaller points would retain their whole stacks (the
// registry gauges hold the network) for nothing.
func sweepSizes[P any](r Run, sizes []int, workers int, point func(n int, r Run) (P, Observed, error)) ([]P, Observed, error) {
	largest := 0
	for i, n := range sizes {
		if n > sizes[largest] {
			largest = i
		}
	}
	var kept Observed
	points, err := parallel.Map(len(sizes), workers, func(i int) (P, error) {
		pr := r
		if i != largest {
			pr.Obs, pr.Audit = obs.Config{}, audit.Config{}
		}
		pt, o, err := point(sizes[i], pr)
		if i == largest {
			kept = o
		}
		return pt, err
	})
	return points, kept, err
}

// PaperSpec returns the simulated datacenter of §IV: ≈3000 servers across
// 70 racks, 1 Gbps NICs, 8:1 oversubscription.
func PaperSpec() topology.Spec { return topology.DefaultSpec() }

// ScaledSpec returns a topology with approximately the requested number of
// servers, keeping the paper's rack width where possible. Small counts get
// proportionally smaller racks so experiments remain meaningful.
func ScaledSpec(servers int) topology.Spec {
	spec := topology.DefaultSpec()
	perRack := spec.ServersPerRack
	if servers < 4*perRack {
		perRack = (servers + 3) / 4
		if perRack < 1 {
			perRack = 1
		}
	}
	racks := (servers + perRack - 1) / perRack
	if racks < 1 {
		racks = 1
	}
	spec.ServersPerRack = perRack
	spec.Racks = racks
	if spec.RacksPerPod > racks {
		spec.RacksPerPod = racks
	}
	return spec
}

// Customers are the five tenants of Fig. 7/8.
var Customers = []string{"Accolade", "Beenox", "Crystal", "Deck13", "Epyx"}

// writeHeader prints a uniform experiment banner.
func writeHeader(w io.Writer, id, title string) {
	fmt.Fprintf(w, "== %s: %s ==\n", id, title)
}

// fmtDur prints a duration in minutes with one decimal, the unit of the
// paper's time axes.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1fmin", d.Minutes())
}
