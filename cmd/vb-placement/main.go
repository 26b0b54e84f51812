// Command vb-placement regenerates the paper's placement experiments:
// Fig. 7 (v-Bundle's VM/PM mapping for 5000 VMs of five customers on ≈3000
// servers), Fig. 8a (a second wave of 5000 VMs under v-Bundle) and Fig. 8b
// (the greedy baseline).
//
// Usage:
//
//	vb-placement [-engine dht|greedy|random] [-waves N] [-vms N]
//	             [-servers N] [-seed N] [-dots]
//
// With -dots the raw scatter (rack, slot, customer) is printed so the
// figure can be plotted externally.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vbundle/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vb-placement: ")
	var (
		engine  = flag.String("engine", "dht", "placement engine: dht, greedy or random")
		waves   = flag.Int("waves", 1, "provisioning waves (1 = Fig 7, 2 = Fig 8)")
		vms     = flag.Int("vms", 1000, "VMs per customer per wave")
		servers = flag.Int("servers", 3000, "approximate server count")
		trials  = flag.Int("trials", 1, "independent trials at seeds seed..seed+trials-1")
		workers = flag.Int("workers", 0, "concurrent trials (0 = all cores, 1 = sequential)")
		dots    = flag.Bool("dots", false, "print the raw scatter points")
		svgDir  = flag.String("svg", "", "directory to write SVG figures into")
		jsonOut = flag.String("json", "", "file to write the outcome as JSON")
	)
	var rf experiments.Flags
	rf.AddFlags(flag.CommandLine)
	flag.Parse()
	run := rf.Start()
	defer rf.Stop()

	kind, err := experiments.ParseEngine(*engine)
	if err != nil {
		rf.Fatal(err)
	}
	p := experiments.PlacementParams{
		Spec:                  experiments.ScaledSpec(*servers),
		VMsPerWavePerCustomer: *vms,
		Waves:                 *waves,
		Engine:                kind,
		Run:                   run,
	}
	seeds := make([]int64, *trials)
	for i := range seeds {
		seeds[i] = run.Seed + int64(i)
	}
	outs, err := experiments.RunPlacementTrials(p, seeds, *workers)
	if err != nil {
		rf.Fatal(err)
	}
	observed := make([]experiments.Observed, len(outs))
	for i, o := range outs {
		o.Report(os.Stdout)
		observed[i] = o.Observed
	}
	out := outs[len(outs)-1]
	if *jsonOut != "" {
		var payload any = out
		if len(outs) > 1 {
			payload = outs
		}
		if err := experiments.WriteJSON(*jsonOut, payload); err != nil {
			rf.Fatal(err)
		}
	}
	if *svgDir != "" {
		if err := experiments.WriteSVGs(*svgDir, out.Charts()); err != nil {
			rf.Fatal(err)
		}
		fmt.Printf("wrote SVG figures to %s\n", *svgDir)
	}
	if *dots {
		last := out.Waves[len(out.Waves)-1]
		fmt.Println("# rack slot customer")
		for _, p := range last.Snapshot.Points() {
			fmt.Printf("%g %g %s\n", p.X, p.Y, p.Series)
		}
	}
	// The written trace is the last trial's.
	if rf.Finish(observed...) {
		rf.Exit(1)
	}
}
