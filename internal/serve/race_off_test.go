//go:build !race

package serve_test

// raceDetectorEnabled reports whether the test binary was built with
// -race, which drops sync.Pool entries at random and so changes
// allocation counts.
const raceDetectorEnabled = false
