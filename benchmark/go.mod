module eplace/benchmark

go 1.22

require eplace v0.0.0

replace eplace => ../
