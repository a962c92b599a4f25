module nucanet/benchmark

go 1.23

require nucanet v0.0.0

replace nucanet => ../
