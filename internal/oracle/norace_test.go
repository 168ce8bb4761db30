//go:build !race

package oracle

// raceBuild reports a race-detector build. The reuse pass runs on one
// goroutine, so the detector has nothing to watch in it and only slows it
// about fourfold; under -race it runs the quick corpus.
const raceBuild = false
