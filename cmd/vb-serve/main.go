// Command vb-serve runs the boot-query serving experiment: a sustained
// stream of boot and terminate requests from a mixed customer population is
// pushed through the serving front end into the live DHT placement engine,
// and placements/sec plus placement-latency percentiles are measured in
// virtual time.
//
// Usage:
//
//	vb-serve [-servers N] [-rate R] [-duration D]
//	         [-flash-mult M] [-flash-start D] [-flash-len D]
//	         [-terminate-frac F] [-prewarm N]
//	         [-cache] [-batch] [-max-inflight N]
//	         [-rebalance] [-seed N] [-shards K] [-json FILE]
//
// The process exits nonzero if any reservation leaked or any boot was left
// unresolved after the drain, so CI can assert serving-layer hygiene with
// the exit code alone.
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
	log.SetPrefix("vb-serve: ")
	var (
		servers   = flag.Int("servers", 512, "approximate server count")
		rate      = flag.Float64("rate", 100, "boot request arrivals per second")
		duration  = flag.Duration("duration", 60*time.Second, "arrival window in virtual time")
		flashMult = flag.Float64("flash-mult", 0, "flash-crowd rate multiplier (0 or 1 = plain Poisson)")
		flashAt   = flag.Duration("flash-start", 0, "flash window start (default duration/3)")
		flashLen  = flag.Duration("flash-len", 0, "flash window length (default duration/6)")
		termFrac  = flag.Float64("terminate-frac", 0.9, "terminate rate as fraction of booted-VM rate (<0 disables)")
		prewarm   = flag.Int("prewarm", 0, "VMs booted per customer before the stream")
		cache     = flag.Bool("cache", false, "enable the customer->region resolution cache")
		batch     = flag.Bool("batch", false, "coalesce concurrent per-customer boots into batched queries")
		maxInFl   = flag.Int("max-inflight", 0, "admission-control cap on unresolved boot VMs (0 = unlimited)")
		maxBatch  = flag.Int("max-batch", 0, "max VMs per coalesced query (0 = default)")
		rebal     = flag.Bool("rebalance", false, "run the periodic rebalancer during the stream")
		jsonOut   = flag.String("json", "", "file to write the outcome as JSON")
	)
	var rf experiments.Flags
	rf.AddFlags(flag.CommandLine)
	flag.Parse()
	run := rf.Start()
	defer rf.Stop()

	out, err := experiments.RunServe(experiments.ServeParams{
		Spec:              experiments.ScaledSpec(*servers),
		RatePerSec:        *rate,
		Duration:          *duration,
		FlashMultiplier:   *flashMult,
		FlashStart:        *flashAt,
		FlashLength:       *flashLen,
		TerminateFraction: *termFrac,
		Prewarm:           *prewarm,
		Cache:             *cache,
		Batch:             *batch,
		MaxInFlight:       *maxInFl,
		MaxBatch:          *maxBatch,
		Rebalance:         *rebal,
		Run:               run,
	})
	if err != nil {
		rf.Fatal(err)
	}
	out.Report(os.Stdout)
	if *jsonOut != "" {
		if err := experiments.WriteJSON(*jsonOut, out); err != nil {
			rf.Fatal(err)
		}
	}
	if rf.Finish(out.Observed) {
		rf.Exit(1)
	}
	if out.LeakedReservations != 0 || out.Unresolved != 0 {
		rf.Fatal(fmt.Errorf("hygiene violation: %d leaked reservations, %d unresolved boots",
			out.LeakedReservations, out.Unresolved))
	}
}
