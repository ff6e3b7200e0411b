module agnn/bench

go 1.22

require agnn v0.0.0

replace agnn => ../
