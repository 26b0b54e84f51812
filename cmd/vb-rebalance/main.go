// Command vb-rebalance regenerates the paper's resource-shuffling
// experiments: Fig. 9 (per-server utilization before/after rebalancing at
// two thresholds), Fig. 10 (utilization standard deviation over time at two
// cluster scales) and Fig. 11 (total demand versus actually satisfied
// bandwidth over time).
//
// Usage:
//
//	vb-rebalance -fig 9|10|11 [-servers N] [-vms-per-server N]
//	             [-threshold X] [-duration MIN] [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"vbundle/internal/experiments"
	"vbundle/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vb-rebalance: ")
	var (
		fig       = flag.Int("fig", 9, "figure to regenerate: 9, 10 or 11")
		servers   = flag.Int("servers", 3000, "approximate server count")
		perServer = flag.Int("vms-per-server", 25, "VMs per server")
		threshold = flag.Float64("threshold", 0, "rebalancing threshold (0 = figure default)")
		duration  = flag.Int("duration", 75, "virtual experiment length in minutes")
		svgDir    = flag.String("svg", "", "directory to write SVG figures into")
		workers   = flag.Int("workers", 0, "concurrent sweep variants (0 = all cores, 1 = sequential)")
	)
	var rf experiments.Flags
	rf.AddFlags(flag.CommandLine)
	flag.Parse()
	run := rf.Start()
	defer rf.Stop()
	charts := map[string]*report.Chart{}
	// Sweeps run several variants; the trace written at exit is the last
	// variant's (pass -threshold to trace a single Fig. 9 run).
	var observed []experiments.Observed
	collect := func(suffix string, out *experiments.RebalanceOutcome) {
		for stem, chart := range out.Charts() {
			charts[stem+suffix] = chart
		}
		observed = append(observed, out.Observed)
	}

	base := experiments.RebalanceParams{
		Spec:         experiments.ScaledSpec(*servers),
		VMsPerServer: *perServer,
		Threshold:    *threshold,
		Duration:     time.Duration(*duration) * time.Minute,
		Run:          run,
	}

	switch *fig {
	case 9:
		// The paper shows two threshold settings side by side; the variants
		// are independent trials, so they run concurrently.
		thresholds := []float64{0.3, 0.1}
		if *threshold != 0 {
			thresholds = []float64{*threshold}
		}
		variants := make([]experiments.RebalanceParams, len(thresholds))
		for i, thr := range thresholds {
			variants[i] = base
			variants[i].Threshold = thr
		}
		outs, err := experiments.RunRebalanceSweep(variants, *workers)
		if err != nil {
			rf.Fatal(err)
		}
		for i, out := range outs {
			out.WriteFig9(os.Stdout)
			collect(fmt.Sprintf("-thr%g", thresholds[i]), out)
		}
	case 10:
		// Two scales, same threshold: convergence time is scale-free.
		scales := []int{30, *servers}
		variants := make([]experiments.RebalanceParams, len(scales))
		for i, n := range scales {
			variants[i] = base
			variants[i].Spec = experiments.ScaledSpec(n)
			if variants[i].Threshold == 0 {
				variants[i].Threshold = 0.183
			}
		}
		outs, err := experiments.RunRebalanceSweep(variants, *workers)
		if err != nil {
			rf.Fatal(err)
		}
		for i, out := range outs {
			out.WriteFig10(os.Stdout)
			collect(fmt.Sprintf("-n%d", scales[i]), out)
		}
	case 11:
		out, err := experiments.RunRebalance(base)
		if err != nil {
			rf.Fatal(err)
		}
		out.WriteFig11(os.Stdout)
		collect("", out)
	default:
		rf.Fatal(fmt.Errorf("unknown figure %d (want 9, 10 or 11)", *fig))
	}
	if *svgDir != "" {
		if err := experiments.WriteSVGs(*svgDir, charts); err != nil {
			rf.Fatal(err)
		}
		fmt.Printf("wrote SVG figures to %s\n", *svgDir)
	}
	if rf.Finish(observed...) {
		rf.Exit(1)
	}
}
