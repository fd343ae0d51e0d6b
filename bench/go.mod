module seqrep/bench

go 1.24

require seqrep v0.0.0

replace seqrep => ../
