module tokenarbiter/bench

go 1.22

require tokenarbiter v0.0.0

replace tokenarbiter => ../
