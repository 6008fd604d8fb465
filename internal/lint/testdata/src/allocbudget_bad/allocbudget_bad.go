// Package allocbudget_bad breaks its committed hot-path budget: a fmt
// call pushes Bump past its inline-cost ceiling and makes its argument
// escape, Leak returns the address of a local, and Distinct builds a map
// that escape analysis keeps on the stack until it grows.
package allocbudget_bad

import "fmt"

// Counter is a hot-path-shaped accumulator with a logging habit.
type Counter struct {
	n   int
	log []string
}

// Bump is budgeted inlinable and allocation-free, but the fmt call blows
// both: formatting costs more than the ceiling and tag escapes into the
// ... argument slice.
func (c *Counter) Bump(tag string) { // want:allocbudget
	c.log = append(c.log, fmt.Sprintf("bump %s", tag))
	c.n++
}

// Leak is budgeted noEscape, but returning &x moves x to the heap.
func Leak(n int) *int { // want:allocbudget
	x := n * 2
	return &x
}

// Distinct is budgeted noEscape. Its map does not escape, so the compiler
// reports nothing, but past eight keys the map grows onto the heap.
func Distinct(xs []int) int {
	seen := map[int]bool{} // want:allocbudget
	for _, x := range xs {
		seen[x] = true
	}
	return len(seen)
}
