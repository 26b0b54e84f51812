// Command vb-sim runs a free-form v-Bundle simulation: it builds a
// datacenter, boots VMs for a set of customers through the chosen placement
// engine, drives bursty workloads, runs the rebalancer, and reports
// placement quality, utilization balance and bandwidth satisfaction at the
// end. It is the kitchen-sink driver for exploring parameter settings the
// paper does not sweep.
//
// Usage:
//
//	vb-sim [-servers N] [-customers N] [-vms N] [-engine dht|greedy|random]
//	       [-threshold X] [-hours H] [-seed N]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"vbundle/internal/cluster"
	"vbundle/internal/core"
	"vbundle/internal/costbenefit"
	"vbundle/internal/experiments"
	"vbundle/internal/metrics"
	"vbundle/internal/rebalance"
	"vbundle/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vb-sim: ")
	var (
		servers      = flag.Int("servers", 300, "approximate server count")
		customers    = flag.Int("customers", 5, "number of customers")
		vms          = flag.Int("vms", 100, "VMs per customer")
		engine       = flag.String("engine", "dht", "placement engine: dht, greedy or random")
		threshold    = flag.Float64("threshold", 0.183, "rebalancing threshold")
		hours        = flag.Float64("hours", 2, "virtual hours to simulate")
		multiKind    = flag.Bool("multi-resource", false, "rebalance on CPU+memory+bandwidth (§VII extension)")
		sameCustomer = flag.Bool("same-customer", false, "restrict exchanges to each customer's own bundle")
		costBenefit  = flag.Bool("cost-benefit", false, "veto migrations whose cost exceeds the recovered bandwidth")
		loss         = flag.Float64("loss", 0, "overlay message loss probability")
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

	rebalCfg := rebalance.Config{Threshold: *threshold, SameCustomerOnly: *sameCustomer}
	if *multiKind {
		rebalCfg.Kinds = []cluster.Kind{cluster.KindBandwidth, cluster.KindCPU, cluster.KindMemory}
	}
	if *costBenefit {
		rebalCfg.CostBenefit = &costbenefit.Config{}
	}
	vb, observed, err := run.Build(core.Options{
		Topology:    experiments.ScaledSpec(*servers),
		Engine:      kind,
		Rebalance:   rebalCfg,
		MessageLoss: *loss,
	})
	if err != nil {
		rf.Fatal(err)
	}
	if *loss > 0 {
		vb.StartMaintenance(30 * time.Second)
	}

	rsv := cluster.Resources{CPU: 0.5, MemMB: 128, BandwidthMbps: 20}
	lim := cluster.Resources{CPU: 4, MemMB: 128, BandwidthMbps: vb.Topo.NICMbps()}
	rng := rand.New(rand.NewSource(run.Seed))
	booted, failed := 0, 0
	for c := 0; c < *customers; c++ {
		name := fmt.Sprintf("customer-%02d", c)
		for v := 0; v < *vms; v++ {
			vm, _, err := vb.BootVM(name, rsv, lim)
			if err != nil {
				failed++
				continue
			}
			booted++
			// Staggered bursty demand creates the workload variation
			// v-Bundle exploits.
			vb.Workloads.Attach(vm.ID, workload.Bursty(
				10, 80+rng.Float64()*120,
				time.Duration(30+rng.Intn(60))*time.Minute,
				0.3+0.4*rng.Float64(),
				rng.Float64(),
			))
		}
	}
	fmt.Printf("booted %d VMs (%d failed) for %d customers on %d servers via %s\n",
		booted, failed, *customers, vb.Topo.Servers(), vb.Placer.Name())

	q := vb.PlacementQuality()
	fmt.Printf("placement: same-rack chatting fraction %.3f, cross-rack traffic %.0f Mbps\n",
		q.SameRackPairFraction(), q.Load.CrossRackMbps())

	vb.Workloads.Start(5 * time.Minute)
	vb.StartServices()

	duration := time.Duration(*hours * float64(time.Hour))
	step := duration / 8
	for t := step; t <= duration; t += step {
		vb.RunFor(step)
		rep := vb.BandwidthSatisfaction()
		fmt.Printf("t=%-8s SD=%.4f demand=%.0f satisfied=%.0f migrations=%d\n",
			t.Round(time.Minute), vb.UtilizationStdDev(),
			rep.DemandMbps, rep.SatisfiedMbps, vb.Migration.Stats().Completed)
	}
	vb.StopServices()
	vb.Workloads.Stop()

	snap := vb.UtilizationSnapshot()
	fmt.Printf("final: mean util %.3f, SD %.4f, max %.3f, migrations completed %d, queries %d\n",
		metrics.MeanOf(snap), metrics.StdOf(snap), maxOf(snap),
		vb.Migration.Stats().Completed, vb.Rebalancer.QueriesSent())
	if rf.Finish(observed) {
		rf.Exit(1)
	}
}

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}
