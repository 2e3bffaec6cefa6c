// Netcalibration: the autonomic network layer in isolation — the behaviour
// behind the paper's Fig. 4. A prober issues periodic 1 MB test transfers
// over a diurnal, jittery pipe; the time-of-day predictor learns the
// profile slot by slot while the thread tuner converges on the parallelism
// that fills the pipe at each hour.
package main

import (
	"fmt"

	"cloudburst/internal/netsim"
	"cloudburst/internal/sim"
	"cloudburst/internal/stats"
)

func main() {
	eng := sim.NewEngine()

	// Hidden truth: a 600 kB/s pipe with a strong day/night swing and 20%
	// sporadic jitter. The learner never reads this directly.
	truth := netsim.DiurnalProfile(600*1024, 0.5)
	link := netsim.NewLink(eng, netsim.LinkConfig{
		Name:     "uplink",
		Profile:  truth,
		JitterCV: 0.2,
		Threads:  netsim.DefaultThreadModel(),
	}, stats.NewRNG(2026))

	predictor := netsim.NewPredictor(24, 0.3, 300*1024) // prior: 300 kB/s
	tuner := netsim.NewTuner(link.ThreadModel(), 1)
	tuner.RecordHistory() // the thread statistics below read it
	prober := netsim.NewProber(eng, link, predictor, tuner, netsim.ProberConfig{Period: 300})

	// Watch the estimate converge over three days.
	fmt.Println("hour-by-hour learning (estimate in kB/s, true mean in kB/s, threads):")
	fmt.Printf("%-6s %9s %9s %8s\n", "time", "estimate", "truth", "threads")
	for day := 0; day < 3; day++ {
		for hour := 0; hour < 24; hour += 6 {
			t := float64(day)*netsim.Day + float64(hour)*3600
			eng.RunUntil(t)
			fmt.Printf("d%d %02d:00 %9.0f %9.0f %8d\n",
				day, hour, predictor.Predict(t)/1024, truth.MeanAt(t)/1024, tuner.Threads())
		}
	}
	prober.Stop()

	// Final per-slot model vs truth — Fig. 4(a).
	fmt.Println("\nlearned time-of-day profile after 3 days (kB/s):")
	est := predictor.SlotEstimates()
	for h := 0; h < 24; h += 2 {
		bar := int(est[h] / 1024 / 25)
		fmt.Printf("%02d:00 %7.0f (true %4.0f) %s\n",
			h, est[h]/1024, truth.Slots[h]/1024, barString(bar))
	}
	fmt.Printf("\n%d probes, %d tuner observations\n",
		prober.Count(), len(tuner.History()))

	// Thread-count statistics per hour band — Fig. 4(b).
	fmt.Println("\ntuned threads by time of day:")
	perHour := map[int]*stats.Summary{}
	for _, s := range tuner.History() {
		h := int(s.T/3600) % 24
		if perHour[h] == nil {
			perHour[h] = &stats.Summary{}
		}
		perHour[h].Add(float64(s.Threads))
	}
	for h := 0; h < 24; h += 4 {
		if perHour[h] == nil {
			continue
		}
		fmt.Printf("%02d:00 mean threads %.1f (offered %4.0f kB/s)\n",
			h, perHour[h].Mean(), truth.Slots[h]/1024)
	}
}

func barString(n int) string {
	if n < 0 {
		n = 0
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
