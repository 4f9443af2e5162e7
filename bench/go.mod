module asqprl/bench

go 1.22

require asqprl v0.0.0

replace asqprl => ../
