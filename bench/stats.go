package main

import "clusterfds/internal/stats"

// stat summarizes repeated measurements of one metric: the median with its
// quartiles and the sample count.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(values []float64) stat {
	s := stats.NewSummary(true)
	for _, v := range values {
		s.Add(v)
	}
	return stat{Median: s.Percentile(0.5), Q1: s.Percentile(0.25), Q3: s.Percentile(0.75), N: s.N()}
}
