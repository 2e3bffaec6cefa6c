// Quickstart: run the paper's test-bed scenario once per scheduler and
// print the SLA reports — the fastest way to see slack-gated cloud
// bursting beat the IC-only baseline.
package main

import (
	"fmt"
	"log"

	"cloudburst"
)

func main() {
	// The paper's test bed with every default explicit; only the seeds vary.
	opts, err := cloudburst.Preset("paper")
	if err != nil {
		log.Fatal(err)
	}
	opts.WorkloadSeed = 1
	opts.NetSeed = 1

	reports, err := cloudburst.Compare(opts,
		cloudburst.ICOnly, cloudburst.Greedy, cloudburst.OrderPreserving, cloudburst.SIBS)
	if err != nil {
		log.Fatal(err)
	}

	base := reports[0]
	for _, r := range reports {
		fmt.Println(r)
	}
	fmt.Println("makespan vs IC-only baseline:")
	for _, r := range reports[1:] {
		fmt.Printf("  %-16s %+.1f%%\n", r.Scheduler, 100*(r.Makespan-base.Makespan)/base.Makespan)
	}

	// The OO metric: how much ordered output the downstream printer could
	// consume halfway through the IC-only run.
	mid := base.Makespan / 2
	fmt.Printf("\nordered data available at t=%.0fs (tolerance 0):\n", mid)
	for _, r := range reports {
		var atMid float64
		for _, p := range r.OOSeries() {
			if p.T <= mid {
				atMid = p.V
			}
		}
		fmt.Printf("  %-16s %6.0f MB\n", r.Scheduler, atMid/(1<<20))
	}
}
