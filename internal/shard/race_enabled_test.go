//go:build race

package shard_test

// raceEnabled reports the race detector is compiled in. The differential
// suite shrinks its shard-count matrix under the detector: the full matrix
// runs ~5 minutes uninstrumented and would blow the package test timeout at
// race-detector speed, and the concurrency surface it exercises (scatter
// fan-out, cache maintenance, boundary writes) is identical in every cell.
const raceEnabled = true
