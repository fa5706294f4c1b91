module reachac/benchmark

go 1.24

require reachac v0.0.0

replace reachac => ../
