module daccor/bench

go 1.24

require daccor v0.0.0

replace daccor => ../
