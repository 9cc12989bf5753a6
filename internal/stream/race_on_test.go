//go:build race

package stream

// raceBuild reports a -race build. Its instrumentation changes what
// some calls allocate — slices.Grow's append of a fresh make is no
// longer folded into one growth — so byte ceilings read without it do
// not hold under it.
const raceBuild = true
