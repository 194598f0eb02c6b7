// Benchmark harness: one bench per reproduced experiment (E1–E13, see
// the experiments row of internal/README.md) plus engine
// micro-benchmarks. Each experiment bench regenerates its table at
// reduced replication counts and reports the headline figures via
// b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the full evaluation.
package diversify

import (
	"strconv"
	"strings"
	"testing"

	"diversify/internal/experiments"
)

// benchOpts keeps experiment benches fast while preserving shapes.
func benchOpts(i int) experiments.Opts {
	return experiments.Opts{Reps: 20, Seed: uint64(i + 1)}
}

// runExperiment executes one experiment per bench iteration and fails the
// bench on error.
func runExperiment(b *testing.B, run experiments.Runner) *experiments.Result {
	b.Helper()
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = run(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

// metricFromRow extracts the float in column col of the first row with
// the given prefix, reporting 0 when absent (shape drift will show up in
// the recorded metric).
func metricFromRow(res *experiments.Result, prefix string, col int) float64 {
	for _, line := range res.Lines {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if col < len(fields) {
			if v, err := strconv.ParseFloat(fields[col], 64); err == nil {
				return v
			}
		}
	}
	return 0
}

func BenchmarkE1_DiversityProduct(b *testing.B) {
	res := runExperiment(b, experiments.E1DiversityProduct)
	// Headline: the ×4 effort factor for 2 machines at PM=0.5.
	b.ReportMetric(metricFromRow(res, "2    0.50", 5), "effort-factor")
}

func BenchmarkE2_TimeToAttack(b *testing.B) {
	res := runExperiment(b, experiments.E2TimeToAttack)
	b.ReportMetric(metricFromRow(res, "1    ", 1), "Psuccess-k1")
	b.ReportMetric(metricFromRow(res, "4    ", 1), "Psuccess-k4")
}

func BenchmarkE3_TTSF(b *testing.B) {
	res := runExperiment(b, func(o experiments.Opts) (*experiments.Result, error) {
		o.Reps = 400
		return experiments.E3TTSF(o)
	})
	b.ReportMetric(metricFromRow(res, "0.10       homogeneous", 2), "MTTSF-homog")
	b.ReportMetric(metricFromRow(res, "0.10       diversified", 2), "MTTSF-divers")
}

func BenchmarkE4_CompromisedRatio(b *testing.B) {
	res := runExperiment(b, func(o experiments.Opts) (*experiments.Result, error) {
		o.Reps = 10
		return experiments.E4CompromisedRatio(o)
	})
	b.ReportMetric(metricFromRow(res, "1     std", 6), "CR168h-k1")
	b.ReportMetric(metricFromRow(res, "4     div", 6), "CR168h-k4div")
}

func BenchmarkE5_DoEScreening(b *testing.B) {
	res := runExperiment(b, experiments.E5DoEScreening)
	// "full 2^6" splits into two fields, so the run count is column 2.
	b.ReportMetric(metricFromRow(res, "full 2^6", 2), "runs-full")
	b.ReportMetric(metricFromRow(res, "PB(8)", 1), "runs-pb")
}

func BenchmarkE6_AnovaAllocation(b *testing.B) {
	res := runExperiment(b, func(o experiments.Opts) (*experiments.Result, error) {
		o.Reps = 8
		return experiments.E6AnovaAllocation(o)
	})
	if len(res.Lines) == 0 {
		b.Fatal("empty result")
	}
}

func BenchmarkE7_ScopePlacement(b *testing.B) {
	res := runExperiment(b, func(o experiments.Opts) (*experiments.Result, error) {
		o.Reps = 25
		return experiments.E7ScopePlacement(o)
	})
	b.ReportMetric(metricFromRow(res, "0          strategic", 2), "PSA-k0")
	b.ReportMetric(metricFromRow(res, "2          strategic", 2), "PSA-k2-strategic")
}

func BenchmarkE8_ThreatModels(b *testing.B) {
	res := runExperiment(b, func(o experiments.Opts) (*experiments.Result, error) {
		o.Reps = 15
		return experiments.E8ThreatModels(o)
	})
	b.ReportMetric(metricFromRow(res, "stuxnet    1", 2), "stuxnet-Psuccess")
}

func BenchmarkE9_PipelineEndToEnd(b *testing.B) {
	runExperiment(b, experiments.E9PipelineEndToEnd)
}

func BenchmarkE10_ProtocolDialect(b *testing.B) {
	res := runExperiment(b, func(o experiments.Opts) (*experiments.Result, error) {
		o.Reps = 100
		return experiments.E10ProtocolDialect(o)
	})
	b.ReportMetric(metricFromRow(res, "standard", 2), "std-injections")
	b.ReportMetric(metricFromRow(res, "diversified", 2), "div-injections")
}

func BenchmarkE11_Sensitivity(b *testing.B) {
	res := runExperiment(b, func(o experiments.Opts) (*experiments.Result, error) {
		o.Reps = 25
		return experiments.E11Sensitivity(o)
	})
	b.ReportMetric(metricFromRow(res, "Det(2.0)", 1), "det-keep-rate")
	b.ReportMetric(metricFromRow(res, "Det(2.0)", 2), "det-resample-rate")
}

func BenchmarkE12_Formalisms(b *testing.B) {
	res := runExperiment(b, func(o experiments.Opts) (*experiments.Result, error) {
		o.Reps = 2000
		return experiments.E12BayesFormalism(o)
	})
	b.ReportMetric(metricFromRow(res, "winxp-sp3+s7-315", 1), "BN-exact")
}

func BenchmarkE13_CostFrontier(b *testing.B) {
	res := runExperiment(b, func(o experiments.Opts) (*experiments.Result, error) {
		o.Reps = 30
		return experiments.E13CostFrontier(o)
	})
	b.ReportMetric(metricFromRow(res, "20 ", 1), "PSA-at-budget-20")
}
