module umac/benchmark

go 1.24

require umac v0.0.0

replace umac => ../
