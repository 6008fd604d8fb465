//go:build race

package fullsys

// raceEnabled reports whether the test binary was built with the race
// detector, whose memory overhead rules out holding two full kernel
// streams at once (TestCaptureMatchesDecodeOfKernels).
const raceEnabled = true
