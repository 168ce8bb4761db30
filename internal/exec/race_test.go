//go:build race

package exec

// raceBuild: see norace_test.go.
const raceBuild = true
