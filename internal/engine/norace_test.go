//go:build !race

package engine

// promptSlack scales the prompt-return bounds in the cancellation tests.
// Race builds multiply every memory access by instrumentation and make GC
// assists an order of magnitude longer, so on a small CI box a cancelled
// query's goroutine can stall for hundreds of milliseconds between
// observing the deadline and returning; the race variant of this constant
// loosens the bounds accordingly without weakening the normal-build gate.
const promptSlack = 1

// raceBuild reports a race-detector build, under which sync.Pool drops some
// of what it is handed, so allocation counts that rely on pooled buffers vary
// from run to run and can only be compared in a normal build.
const raceBuild = false
