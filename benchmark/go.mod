module github.com/subsum/subsum/benchmark

go 1.22

require github.com/subsum/subsum v0.0.0

replace github.com/subsum/subsum => ../
