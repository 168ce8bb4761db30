//go:build !race

package exec

// raceBuild reports a race-detector build, under which sync.Pool drops some
// of what it is handed, so allocation counts that rely on pooled arrays vary
// from run to run and can only be compared in a normal build.
const raceBuild = false
