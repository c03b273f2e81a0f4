module nalquery/benchmark

go 1.23

require nalquery v0.0.0

replace nalquery => ../
