// vmpbench is a module of its own so that the benchmark builds from its
// own directory; it measures the vmp module in the directory above.
module vmp/bench

go 1.22

require vmp v0.0.0

replace vmp => ../
