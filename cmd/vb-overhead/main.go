// Command vb-overhead regenerates the paper's overhead analysis (§V.C):
// Table I (computation overhead of v-Bundle's pub-sub operations), Fig. 14
// (leaf-to-root aggregation latency versus ring size) and Fig. 15 (the CDF
// of per-host messages per round).
//
// Usage:
//
//	vb-overhead [-fig 14|15|1|0] [-max-servers N] [-iterations N] [-seed N]
//
// -fig 0 (the default) prints everything.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vbundle/internal/experiments"
	"vbundle/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vb-overhead: ")
	var (
		fig     = flag.Int("fig", 0, "what to print: 14, 15, 1 (Table I), or 0 for all")
		maxN    = flag.Int("max-servers", 1024, "largest ring size to sweep")
		minN    = flag.Int("min-servers", 16, "smallest ring size to sweep (CI uses min=max to gate one big rung without paying for the whole ladder)")
		iters   = flag.Int("iterations", 1000, "Table I iterations per operation")
		svgDir  = flag.String("svg", "", "directory to write SVG figures into")
		workers = flag.Int("workers", 0, "concurrent sweep points (0 = all cores, 1 = sequential)")
	)
	var rf experiments.Flags
	rf.AddFlags(flag.CommandLine)
	flag.Parse()
	run := rf.Start()
	defer rf.Stop()
	charts := map[string]*report.Chart{}
	var observed []experiments.Observed

	var sizes []int
	for n := 16; n <= *maxN; n *= 2 {
		if n >= *minN {
			sizes = append(sizes, n)
		}
	}
	if len(sizes) == 0 {
		rf.Fatal(fmt.Errorf("empty sweep: no power of two in [%d, %d]", *minN, *maxN))
	}

	if *fig == 0 || *fig == 1 {
		out, err := experiments.RunTable1(experiments.Table1Params{
			Servers:    min(512, *maxN),
			Iterations: *iters,
			Seed:       run.Seed,
		})
		if err != nil {
			rf.Fatal(err)
		}
		out.Report(os.Stdout)
	}
	if *fig == 0 || *fig == 14 {
		out, err := experiments.RunAggLatency(experiments.AggLatencyParams{Sizes: sizes, Parallelism: *workers, Run: run})
		if err != nil {
			rf.Fatal(err)
		}
		out.Report(os.Stdout)
		observed = append(observed, out.Observed)
		for stem, chart := range out.Charts() {
			charts[stem] = chart
		}
	}
	if *fig == 0 || *fig == 15 {
		var big []int
		for _, n := range sizes {
			if n >= 256 {
				big = append(big, n)
			}
		}
		if len(big) == 0 {
			big = sizes
		}
		out, err := experiments.RunMessageOverhead(experiments.MessageOverheadParams{Sizes: big, Parallelism: *workers, Run: run})
		if err != nil {
			rf.Fatal(err)
		}
		out.Report(os.Stdout)
		observed = append(observed, out.Observed)
		for stem, chart := range out.Charts() {
			charts[stem] = chart
		}
	}
	if *svgDir != "" && len(charts) > 0 {
		if err := experiments.WriteSVGs(*svgDir, charts); err != nil {
			rf.Fatal(err)
		}
		fmt.Printf("wrote SVG figures to %s\n", *svgDir)
	}
	if rf.Finish(observed...) {
		rf.Exit(1)
	}
}
