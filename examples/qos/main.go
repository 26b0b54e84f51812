// QoS demo: the paper's §V testbed experiment in one run. A SIPp call
// generator shares a host with aggressive Iperf streams; before v-Bundle
// engages, calls fail and response times blow up; after the rebalancer
// live-migrates the aggressors to the customer's idle servers, the SIP
// service recovers.
//
// Run with:
//
//	go run ./examples/qos
package main

import (
	"fmt"
	"log"

	"vbundle/internal/experiments"
)

func main() {
	out, err := experiments.RunQoS(experiments.QoSParams{Run: experiments.Run{Seed: 1}})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("SIPp shares its host with aggressive Iperf streams (15 hosts, 225 VMs).")
	fmt.Printf("v-Bundle's rebalancing window: %.0fs–%.0fs (%d live migrations)\n\n",
		out.FirstMigrationAt.Seconds(), out.LastMigrationAt.Seconds(), out.Migrations)

	fmt.Println("failed calls per 5s sample:")
	for _, pt := range out.FailedCalls.Points() {
		if int(pt.T.Seconds())%25 != 0 {
			continue // print every 5th sample
		}
		phase := "before"
		switch {
		case out.FirstMigrationAt != 0 && pt.T > out.LastMigrationAt:
			phase = "after "
		case out.FirstMigrationAt != 0 && pt.T >= out.FirstMigrationAt:
			phase = "during"
		}
		fmt.Printf("  t=%4.0fs [%s] %6.0f %s\n", pt.T.Seconds(), phase, pt.V, hashes(pt.V/200))
	}

	fmt.Printf("\nresponse time: P(RT <= 10ms) before=%.2f after=%.2f (paper: 0.10 -> 0.945)\n",
		out.RTBefore.At(10), out.RTAfter.At(10))
	fmt.Printf("median RT: before=%.0fms after=%.0fms\n",
		out.RTBefore.Quantile(0.5), out.RTAfter.Quantile(0.5))
	fmt.Printf("total calls: %d offered, %d failed (%.1f%%)\n",
		out.TotalOffered, out.TotalFailed, 100*float64(out.TotalFailed)/float64(out.TotalOffered))
}

func hashes(n float64) string {
	k := int(n)
	if k > 40 {
		k = 40
	}
	out := make([]byte, k)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
