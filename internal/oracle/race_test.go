//go:build race

package oracle

// raceBuild: see norace_test.go.
const raceBuild = true
