package sim

import (
	"math/rand"
	randv2 "math/rand/v2"
)

// Explicitly seeded is not enough in a simulation package: the generator
// must be a named des.RNG stream.
type speaker struct{ proc, jitter *rand.Rand }

func newSpeaker(seed int64) *speaker {
	src := rand.NewSource(seed + 1) // want `rand.NewSource builds a generator next to the simulation; streams come from des.RNG`
	return &speaker{
		proc:   rand.New(src),                      // want `rand.New builds a generator next to the simulation`
		jitter: rand.New(rand.NewSource(seed ^ 7)), // want `rand.New builds a generator` `rand.NewSource builds a generator`
	}
}

func v2(seed uint64) *randv2.Rand {
	return randv2.New(randv2.NewPCG(seed, 1)) // want `rand.New builds a generator next to the simulation`
}

func global() int {
	return rand.Intn(10) // want `rand.Intn draws from the process-global generator`
}
