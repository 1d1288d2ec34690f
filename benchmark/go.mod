module gcbfs/benchmark

go 1.24

require gcbfs v0.0.0

replace gcbfs => ../
