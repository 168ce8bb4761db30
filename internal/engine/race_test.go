//go:build race

package engine

// promptSlack: see norace_test.go. Even 6x the normal bound stays
// far below what a non-prompt teardown (a full multi-second drain) would
// measure, so the race run still catches real regressions.
const promptSlack = 6

// raceBuild: see norace_test.go.
const raceBuild = true
