package cloudburst

// Fuzz coverage for the Options validation surface: no input may panic
// validate, Normalize, bucket or scheduler resolution; every rejection must
// be a typed, cloudburst-prefixed *OptionError; accepted options hold only
// finite floats; and Normalize must be idempotent and must never flip a
// configuration between valid and invalid.

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func FuzzOptionsValidate(f *testing.F) {
	// Seed corpus: the zero config, the paper testbed, and one hit for each
	// validation family (negative counts, out-of-range ratios, autoscale
	// inconsistencies, fault options, cost options).
	f.Add(0, 0.0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, "", "")
	f.Add(6, 15.0, 8, 2, 614400.0, 0.3, 0.15, 0.0, 0.0, 0, 2, 0.0, 0.0, 0.0, 2, 0.10, 0.03, 3600.0, 1.0, 0.08, "Op", "uniform")
	f.Add(-1, -2.0, -3, -4, -5.0, 1.5, -0.1, -6.0, 1.2, -1, -2, -7.0, -8.0, -9.0, -1, -0.1, -0.2, -60.0, -1.0, -0.3, "nope", "nope")
	f.Add(2, 4.0, 8, 5, 0.0, 0.0, 0.0, 300.0, 0.5, 2, 0, 0.0, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, "SIBS", "large")
	f.Add(2, 4.0, 8, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 4, 1, 150.0, 600.0, 300.0, 3, 0.10, 0.0, 60.0, 0.25, 0.0, "Greedy", "small")
	f.Add(2, math.NaN(), 8, 2, math.Inf(1), 0.3, math.NaN(), math.Inf(1), 0.0, 0, 1, 0.0, math.NaN(), 0.0, 0, 0.10, 0.0, 3600.0, math.Inf(1), math.NaN(), "Op", "small")

	f.Fuzz(func(t *testing.T,
		batches int, meanJobs float64, icM, ecM int,
		upBW, amp, jitter, outageMTBF, throttle float64,
		autoMax, siteMachines int,
		ecRevMTBF, icCrashMTBF, icCrashMTTR float64, maxRetries int,
		costRate, spotRate, billing, budget, siteRate float64,
		schedName, bucketName string,
	) {
		o := Options{
			Scheduler:        SchedulerName(schedName),
			Bucket:           BucketName(bucketName),
			Batches:          batches,
			MeanJobsPerBatch: meanJobs,
			ICMachines:       icM,
			ECMachines:       ecM,
			UploadMeanBW:     upBW,
			DiurnalAmplitude: amp,
			JitterCV:         jitter,
			OutageMTBF:       outageMTBF,
			OutageThrottle:   throttle,
			AutoscaleECMax:   autoMax,
			ExtraECSites:     []ECSiteSpec{{Machines: siteMachines, OnDemandRate: siteRate}},
			Faults: &FaultOptions{
				ECRevocationMTBF: ecRevMTBF,
				ICCrashMTBF:      icCrashMTBF,
				ICCrashMTTR:      icCrashMTTR,
				MaxRetries:       maxRetries,
			},
			Cost: &CostOptions{
				OnDemandRate:       costRate,
				SpotRate:           spotRate,
				BillingIntervalSec: billing,
				Budget:             budget,
			},
		}

		err := o.validate()
		if err != nil {
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("validate returned untyped error %T: %v", err, err)
			}
			if !strings.HasPrefix(err.Error(), "cloudburst: ") {
				t.Fatalf("error not cloudburst-prefixed: %q", err)
			}
			if oe.Field == "" || oe.Reason == "" {
				t.Fatalf("OptionError missing field or reason: %+v", *oe)
			}
		} else {
			accepted := o // the walk fills nil fields of its copy
			eachFloatOption(reflect.ValueOf(&accepted).Elem(), "", func(path string, f reflect.Value) {
				if v := f.Float(); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("validate accepted %s = %v", path, v)
				}
			})
		}

		n := o.Normalize()
		nn := n.Normalize()
		if (err == nil) != (n.validate() == nil) {
			t.Fatalf("Normalize flipped validity: raw err=%v, normalized err=%v", err, n.validate())
		}
		// DeepEqual never equates NaN with itself: give a NaN on either
		// side the same stand-in before comparing.
		for _, x := range []*Options{&n, &nn} {
			eachFloatOption(reflect.ValueOf(x).Elem(), "", func(_ string, f reflect.Value) {
				if math.IsNaN(f.Float()) {
					f.SetFloat(-math.MaxFloat64)
				}
			})
		}
		if !reflect.DeepEqual(n, nn) {
			t.Fatalf("Normalize not idempotent for %+v", o)
		}

		// Name resolution must never panic, and rejections stay typed.
		if _, berr := o.bucket(); berr != nil {
			var oe *OptionError
			if !errors.As(berr, &oe) {
				t.Fatalf("bucket error untyped: %v", berr)
			}
		}
		if _, serr := o.scheduler(); serr != nil {
			var oe *OptionError
			if !errors.As(serr, &oe) {
				t.Fatalf("scheduler error untyped: %v", serr)
			}
		}
	})
}
