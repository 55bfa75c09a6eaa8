module bgploop/bench

go 1.22

require bgploop v0.0.0

replace bgploop => ../
