// Package stats provides small numeric helpers shared by the simulators
// and experiment drivers. Event counting lives in lva/internal/obs, whose
// registry counters are race-safe under the cross-figure scheduler.
package stats

import "fmt"

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Percent formats a fraction (0.123) as a percentage string ("12.3%").
func Percent(frac float64) string {
	return fmt.Sprintf("%.1f%%", frac*100)
}
