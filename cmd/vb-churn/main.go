// Command vb-churn runs the VM-churn extension experiment: hours of Poisson
// VM arrivals and exponential departures for five customers, measuring
// whether placement locality survives continuous operation (v-Bundle's
// "peers adjacent in keys have space to grow or shrink" claim) versus the
// greedy baseline, which fragments permanently.
//
// Usage:
//
//	vb-churn [-engine dht|greedy|random] [-servers N] [-hours H]
//	         [-arrivals-per-min X] [-lifetime-min M] [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"vbundle/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vb-churn: ")
	var (
		engine   = flag.String("engine", "dht", "placement engine: dht, greedy or random")
		servers  = flag.Int("servers", 300, "approximate server count")
		hours    = flag.Float64("hours", 4, "virtual hours of churn")
		arrivals = flag.Float64("arrivals-per-min", 2, "mean VM arrivals per minute per customer")
		lifetime = flag.Float64("lifetime-min", 30, "mean VM lifetime in minutes")
		trials   = flag.Int("trials", 1, "independent trials at seeds seed..seed+trials-1")
		workers  = flag.Int("workers", 0, "concurrent trials (0 = all cores, 1 = sequential)")
		jsonOut  = flag.String("json", "", "file to write the outcome as JSON")
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
	p := experiments.ChurnParams{
		Spec:              experiments.ScaledSpec(*servers),
		ArrivalsPerMinute: *arrivals,
		MeanLifetime:      time.Duration(*lifetime * float64(time.Minute)),
		Duration:          time.Duration(*hours * float64(time.Hour)),
		Engine:            kind,
		Run:               run,
	}
	seeds := make([]int64, *trials)
	for i := range seeds {
		seeds[i] = run.Seed + int64(i)
	}
	outs, err := experiments.RunChurnTrials(p, seeds, *workers)
	if err != nil {
		rf.Fatal(err)
	}
	var meanLoc float64
	observed := make([]experiments.Observed, len(outs))
	for i, out := range outs {
		out.Report(os.Stdout)
		meanLoc += out.MeanLocality
		observed[i] = out.Observed
	}
	if len(outs) > 1 {
		fmt.Printf("mean same-rack fraction over %d trials: %.3f\n", len(outs), meanLoc/float64(len(outs)))
	}
	if *jsonOut != "" {
		var payload any = outs[0]
		if len(outs) > 1 {
			payload = outs
		}
		if err := experiments.WriteJSON(*jsonOut, payload); err != nil {
			rf.Fatal(err)
		}
	}
	// The written trace is the last trial's.
	if rf.Finish(observed...) {
		rf.Exit(1)
	}
}
