module relsim/bench

go 1.24

require relsim v0.0.0

replace relsim => ../
