//go:build !race

package fullsys

// raceEnabled reports whether the test binary was built with the race
// detector (see race_on_test.go).
const raceEnabled = false
