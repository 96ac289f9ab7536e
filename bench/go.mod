module focus/bench

go 1.24

require focus v0.0.0

replace focus => ../
