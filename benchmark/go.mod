module banscore/benchmark

go 1.22

require banscore v0.0.0

replace banscore => ../
