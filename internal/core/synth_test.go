package core

import (
	"perspector/internal/perf"
	"perspector/internal/rng"
)

// synthSuite builds a SuiteMeasurement directly from counter vectors and
// per-counter series, bypassing the simulator, so analysis behaviour can
// be tested against constructed ground truth.
func synthSuite(name string, vectors [][]float64, seriesPer [][]float64) *perf.SuiteMeasurement {
	sm := &perf.SuiteMeasurement{Suite: name}
	for i, v := range vectors {
		var m perf.Measurement
		m.Workload = name + "-" + string(rune('a'+i))
		for c := 0; c < len(v) && c < int(perf.NumCounters); c++ {
			m.Totals[c] = uint64(v[c])
		}
		if seriesPer != nil {
			for c := perf.Counter(0); c < perf.NumCounters; c++ {
				m.Series.Samples[c] = append([]float64(nil), seriesPer[i]...)
			}
		}
		sm.Workloads = append(sm.Workloads, m)
	}
	return sm
}

func flatSeries(level float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = level
	}
	return s
}

func stepSeries(a, b float64, n int) []float64 {
	return stepSeriesAt(a, b, n, n/2)
}

// stepSeriesAt switches from level a to level b at sample `at`. Different
// switch positions give different *shapes*, which is what the CDF/
// percentile normalization preserves (magnitude is deliberately erased).
func stepSeriesAt(a, b float64, n, at int) []float64 {
	s := make([]float64, n)
	for i := range s {
		if i < at {
			s[i] = a
		} else {
			s[i] = b
		}
	}
	return s
}

func fullVec(base float64, src *rng.Source) []float64 {
	v := make([]float64, perf.NumCounters)
	for i := range v {
		v[i] = base + src.Float64()*base
	}
	return v
}
