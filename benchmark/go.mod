module github.com/g-rpqs/rlc-go/benchmark

go 1.24

require github.com/g-rpqs/rlc-go v0.0.0

replace github.com/g-rpqs/rlc-go => ../
