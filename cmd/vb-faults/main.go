// Command vb-faults runs the Fig. 9 rebalancing scenario under injected
// faults: a sweep of message-loss rates with receivers killed mid-run. For
// each loss rate it reports the convergence (settling) time of the
// utilization standard deviation and the number of receiver-side
// reservations still held once the protocol stops and every lease has had
// time to expire — the leak counter, which must read zero.
//
// With -crash the kills become true crashes: each victim's handler and all
// its soft state are discarded, and the node reboots -restart-after minutes
// later from its durable store, rejoining the live ring. The sweep then
// gates on full recovery — no VM lost, no reservation leaked across the
// restart — and exits nonzero if any run fails it.
//
// Usage:
//
//	vb-faults [-servers N] [-vms-per-server N] [-threshold X]
//	          [-duration MIN] [-lease MIN] [-drop-rates 0,0.01,0.02,0.05]
//	          [-kill N] [-kill-at MIN] [-seed N] [-workers N]
//	          [-crash] [-restart-after MIN] [-crash-forever N]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"vbundle/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vb-faults: ")
	var (
		servers   = flag.Int("servers", 300, "approximate server count")
		perServer = flag.Int("vms-per-server", 10, "VMs per server")
		threshold = flag.Float64("threshold", 0.183, "rebalancing threshold")
		duration  = flag.Int("duration", 75, "virtual experiment length in minutes")
		lease     = flag.Int("lease", 10, "reservation lease duration in minutes")
		rates     = flag.String("drop-rates", "0,0.01,0.02,0.05", "comma-separated message loss probabilities")
		kill      = flag.Int("kill", 1, "receivers to kill mid-run")
		killAt    = flag.Int("kill-at", 0, "kill time in minutes (0 = duration/3)")
		workers   = flag.Int("workers", 0, "concurrent sweep variants (0 = all cores, 1 = sequential)")
		verbose   = flag.Bool("v", false, "print the full per-run report, not just the sweep table")

		crash        = flag.Bool("crash", false, "crash receivers for real (blank handler + durable-store reboot) instead of pausing them")
		restartAfter = flag.Int("restart-after", 0, "crash downtime in minutes before the reboot (0 = 2x update interval)")
		crashForever = flag.Int("crash-forever", 0, "additional receivers crashed with no restart at all")
	)
	var rf experiments.Flags
	rf.AddFlags(flag.CommandLine)
	flag.Parse()
	run := rf.Start()
	defer rf.Stop()

	drops, err := parseRates(*rates)
	if err != nil {
		rf.Fatal(err)
	}
	if *crash {
		variants := make([]experiments.CrashRestartParams, len(drops))
		for i, d := range drops {
			variants[i] = experiments.CrashRestartParams{
				Spec:          experiments.ScaledSpec(*servers),
				VMsPerServer:  *perServer,
				Threshold:     *threshold,
				Duration:      time.Duration(*duration) * time.Minute,
				LeaseDuration: time.Duration(*lease) * time.Minute,
				DropRate:      d,
				CrashNodes:    *kill,
				CrashForever:  *crashForever,
				CrashAt:       time.Duration(*killAt) * time.Minute,
				RestartAfter:  time.Duration(*restartAfter) * time.Minute,
				Run:           run,
			}
		}
		runCrashSweep(&rf, variants, *workers, *verbose)
		return
	}
	variants := make([]experiments.ResilienceParams, len(drops))
	for i, d := range drops {
		variants[i] = experiments.ResilienceParams{
			Spec:          experiments.ScaledSpec(*servers),
			VMsPerServer:  *perServer,
			Threshold:     *threshold,
			Duration:      time.Duration(*duration) * time.Minute,
			LeaseDuration: time.Duration(*lease) * time.Minute,
			DropRate:      d,
			KillReceivers: *kill,
			KillAt:        time.Duration(*killAt) * time.Minute,
			Run:           run,
		}
	}
	outs, err := experiments.RunResilienceSweep(variants, *workers)
	if err != nil {
		rf.Fatal(err)
	}
	if *verbose {
		for _, out := range outs {
			out.WriteResilience(os.Stdout)
		}
	}
	experiments.WriteResilienceTable(os.Stdout, outs)

	leaked := 0
	observed := make([]experiments.Observed, len(outs))
	for i, out := range outs {
		leaked += out.Leaked
		observed[i] = out.Observed
	}
	// The written trace is the last sweep variant's (the highest loss rate,
	// where recoveries are most interesting).
	if rf.Finish(observed...) {
		rf.Exit(1)
	}
	if leaked != 0 {
		rf.Fatal(fmt.Errorf("%d reservations leaked across the sweep", leaked))
	}
	fmt.Println("no reservations leaked at quiesce in any run")
}

// runCrashSweep is the -crash mode: one crash-restart-recover run per drop
// rate, gated on full recovery.
func runCrashSweep(rf *experiments.Flags, variants []experiments.CrashRestartParams, workers int, verbose bool) {
	outs, err := experiments.RunCrashRestartSweep(variants, workers)
	if err != nil {
		rf.Fatal(err)
	}
	if verbose {
		for _, out := range outs {
			out.WriteCrashRestart(os.Stdout)
		}
	}
	experiments.WriteCrashRestartTable(os.Stdout, outs)
	observed := make([]experiments.Observed, len(outs))
	for i, out := range outs {
		observed[i] = out.Observed
	}
	if rf.Finish(observed...) {
		rf.Exit(1)
	}
	failed := 0
	for _, out := range outs {
		if !out.GatePassed() {
			failed++
			log.Printf("gate FAILED at %.1f%% loss: lost VMs=%d, lost placements=%d, leaked=%d",
				out.Params.DropRate*100, out.LostVMs, out.Recovery.LostPlacements, out.Leaked)
		}
	}
	if failed != 0 {
		rf.Fatal(fmt.Errorf("%d of %d crash-restart runs failed the recovery gate", failed, len(outs)))
	}
	fmt.Println("every crash-restart run recovered fully: no VM lost, no reservation leaked")
}

func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || v < 0 || v >= 1 {
			return nil, fmt.Errorf("bad drop rate %q (want 0 <= rate < 1)", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no drop rates in %q", s)
	}
	return out, nil
}
