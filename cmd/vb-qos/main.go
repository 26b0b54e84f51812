// Command vb-qos regenerates the paper's testbed QoS experiments: Fig. 12
// (SIPp failed calls before, during and after v-Bundle's rebalancing) and
// Fig. 13 (the SIPp response-time CDF before versus after).
//
// Usage:
//
//	vb-qos [-fig 12|13|0] [-hosts N] [-vms-per-host N] [-seed N]
//
// -fig 0 (the default) prints both figures from a single run, which is how
// the paper gathered them.
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
	log.SetPrefix("vb-qos: ")
	var (
		fig     = flag.Int("fig", 0, "figure to print: 12, 13, or 0 for both")
		hosts   = flag.Int("hosts", 15, "physical hosts")
		perHost = flag.Int("vms-per-host", 15, "VMs per host")
		svgDir  = flag.String("svg", "", "directory to write SVG figures into")
		jsonOut = flag.String("json", "", "file to write the outcome as JSON")
	)
	var rf experiments.Flags
	rf.AddFlags(flag.CommandLine)
	flag.Parse()
	run := rf.Start()
	defer rf.Stop()

	out, err := experiments.RunQoS(experiments.QoSParams{
		Hosts:      *hosts,
		VMsPerHost: *perHost,
		Run:        run,
	})
	if err != nil {
		rf.Fatal(err)
	}
	switch *fig {
	case 0:
		out.WriteFig12(os.Stdout)
		out.WriteFig13(os.Stdout)
	case 12:
		out.WriteFig12(os.Stdout)
	case 13:
		out.WriteFig13(os.Stdout)
	default:
		rf.Fatal(fmt.Errorf("unknown figure %d (want 12, 13 or 0)", *fig))
	}
	if *jsonOut != "" {
		if err := experiments.WriteJSON(*jsonOut, out); err != nil {
			rf.Fatal(err)
		}
	}
	if *svgDir != "" {
		if err := experiments.WriteSVGs(*svgDir, out.Charts()); err != nil {
			rf.Fatal(err)
		}
		fmt.Printf("wrote SVG figures to %s\n", *svgDir)
	}
	if rf.Finish(out.Observed) {
		rf.Exit(1)
	}
}
