module diffindex/benchmark

go 1.22

require diffindex v0.0.0

replace diffindex => ../
