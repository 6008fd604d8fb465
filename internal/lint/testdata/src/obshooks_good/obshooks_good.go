// Package obshooks_good exercises the obshooks analyzer's accepted
// patterns: per-instance state on receivers and locals, with shared
// counters reached only through a nil-able metrics seam.
package obshooks_good

// metrics stands in for a nil-able seam into the engine metrics (nil
// when metrics are disabled).
type metrics struct{ misses counter }

// counter stands in for one engine metrics counter.
type counter struct{ n uint64 }

func (c *counter) inc() {
	if c != nil {
		c.n++
	}
}

// sim is per-instance simulator state: field mutation through a receiver
// is the normal, allowed pattern.
type sim struct {
	misses uint64
	om     *metrics
}

// OnMiss counts on the instance and through the seam, never on a global.
func (s *sim) OnMiss() {
	s.misses++
	if m := s.om; m != nil {
		m.misses.inc()
	}
}

// Sum accumulates into locals, which is always fine.
func Sum(vals []int) int {
	total := 0
	for _, v := range vals {
		total += v
	}
	return total
}
