// Command experiments regenerates every table and figure of the paper's
// evaluation section, plus the ablation studies called out in DESIGN.md.
//
//	experiments            # all figures and tables
//	experiments -ablations # design-choice ablations as well
//	experiments -only fig9 # a single driver
//
// Related commands: cmd/cloudburst runs a single simulation (or, with
// -serve, the always-on streaming service mode with rolling-window metrics
// and checkpoint/restore); cmd/sweep runs sharded scenario sweeps with
// resume manifests.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"cloudburst/internal/experiments"
	"cloudburst/internal/profile"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "base replication seed")
		ablations  = flag.Bool("ablations", false, "also run the ablation studies")
		extensions = flag.Bool("extensions", false, "also run the future-work extension studies")
		only       = flag.String("only", "", "run a single driver: fig3, fig4a, fig4b, fig6, fig7, fig8, fig9, fig10, table1, sibs, autoscale, tickets")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole command to this file (read with go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file when the command finishes")
	)
	flag.Parse()
	stopProfiles, perr := profile.Start(*cpuProfile, *memProfile)
	if perr != nil {
		fatal(perr)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()

	if *only != "" {
		if err := runOne(strings.ToLower(*only), *seed); err != nil {
			fatal(err)
		}
		return
	}

	tables, err := experiments.All(*seed)
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		fmt.Println(t)
	}
	if *ablations {
		abl, err := experiments.Ablations(*seed)
		if err != nil {
			fatal(err)
		}
		for _, t := range abl {
			fmt.Println(t)
		}
	}
	if *extensions {
		ext, err := experiments.Extensions(*seed)
		if err != nil {
			fatal(err)
		}
		for _, t := range ext {
			fmt.Println(t)
		}
	}
}

// singleDrivers maps every -only name with a single-table driver; table1
// is handled separately because it prints one table per bucket.
var singleDrivers = map[string]func(int64) (*experiments.Table, error){
	"fig3":      experiments.Figure3QRSM,
	"fig4a":     experiments.Figure4aTimeOfDay,
	"fig4b":     experiments.Figure4bThreads,
	"fig6":      experiments.Figure6Makespan,
	"fig7":      experiments.Figure7Completions,
	"fig8":      experiments.Figure8LargeCompletions,
	"fig9":      experiments.Figure9OOMetric,
	"fig10":     experiments.Figure10RelativeOO,
	"sibs":      experiments.SIBSOptimization,
	"autoscale": experiments.ExtensionAutoscale,
	"tickets":   experiments.ExtensionTickets,
	"multiec":   experiments.ExtensionMultiEC,
}

// driverNames returns every valid -only argument, sorted.
func driverNames() []string {
	names := make([]string, 0, len(singleDrivers)+1)
	for name := range singleDrivers {
		names = append(names, name)
	}
	names = append(names, "table1")
	sort.Strings(names)
	return names
}

func runOne(name string, seed int64) error {
	if f, ok := singleDrivers[name]; ok {
		t, err := f(seed)
		if err != nil {
			return err
		}
		fmt.Println(t)
		return nil
	}
	if name == "table1" {
		ts, err := experiments.Table1Metrics(seed)
		if err != nil {
			return err
		}
		for _, t := range ts {
			fmt.Println(t)
		}
		return nil
	}
	return fmt.Errorf("unknown driver %q (valid drivers: %s)", name, strings.Join(driverNames(), ", "))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
