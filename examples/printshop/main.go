// Printshop: the paper's motivating scenario end to end. A production
// printing facility processes large document jobs (newspapers, statements,
// marketing runs) ahead of physical production. The downstream press
// consumes outputs in order, so the shop cares about the OO metric as much
// as the makespan; this example contrasts the Greedy and Order Preserving
// schedulers under a congested afternoon with high network variation and
// prints what the press operator would see.
package main

import (
	"fmt"
	"log"

	"cloudburst"
)

func main() {
	// A heavy afternoon: the high-variance preset (jitter CV 0.5) with ten
	// batches of ~18 large-biased jobs; the press tolerates being at most
	// 4 jobs out of order.
	base, err := cloudburst.Preset("highvar")
	if err != nil {
		log.Fatal(err)
	}
	base.Bucket = cloudburst.Large
	base.Batches = 10
	base.MeanJobsPerBatch = 18
	base.OOToleranceJobs = 4
	base.WorkloadSeed = 2026
	base.NetSeed = 7

	reports, err := cloudburst.Compare(base,
		cloudburst.ICOnly, cloudburst.Greedy, cloudburst.OrderPreserving)
	if err != nil {
		log.Fatal(err)
	}
	icOnly, greedy, op := reports[0], reports[1], reports[2]

	fmt.Println("== print shop afternoon: 10 batches, large documents, flaky pipe ==")
	for _, r := range reports {
		fmt.Println(r)
	}

	// Press-side view: how long does the press stall waiting for the next
	// in-order job?
	fmt.Println("press stalls (in-order consumer):")
	for _, r := range reports {
		fmt.Printf("  %-8s %3d stalls, %6.0fs total, worst %5.0fs\n",
			r.Scheduler, r.PeakCount, r.TotalStall, r.MaxPeak)
	}

	// Ordered-data availability relative to keeping everything in-house:
	// positive means the press can run faster than with the IC alone.
	fmt.Println("\nmean ordered-data advantage over IC-only (MB):")
	for _, r := range []*cloudburst.Report{greedy, op} {
		rel := r.RelativeOOSeries(icOnly)
		var sum float64
		for _, p := range rel {
			sum += p.V
		}
		fmt.Printf("  %-8s %8.0f\n", r.Scheduler, sum/float64(len(rel))/(1<<20))
	}

	// Burst decisions batch by batch: when did each scheduler reach for
	// the external cloud?
	fmt.Println("\nburst ratio per batch:")
	fmt.Printf("  %-8s", "batch")
	for b := 0; b < base.Batches; b++ {
		fmt.Printf("%5d", b)
	}
	fmt.Println()
	for _, r := range []*cloudburst.Report{greedy, op} {
		ratios := r.BatchBurstRatios()
		fmt.Printf("  %-8s", r.Scheduler)
		for b := 0; b < base.Batches; b++ {
			fmt.Printf("%5.2f", ratios[b])
		}
		fmt.Println()
	}

	if op.TotalStall < greedy.TotalStall {
		fmt.Println("\nslack-gated bursting kept the press fed better than greedy placement.")
	} else {
		fmt.Println("\nthis seed favoured greedy placement — rerun with another NetSeed to see the variance.")
	}
}
