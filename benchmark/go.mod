module github.com/elsa-hpc/elsa/benchmark

go 1.22

require github.com/elsa-hpc/elsa v0.0.0

replace github.com/elsa-hpc/elsa => ../
