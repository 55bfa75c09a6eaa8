package sim

import "math/rand"

// factory stands in for des.RNG: the streams are made elsewhere.
type factory interface {
	StreamN(prefix string, n int) *rand.Rand
}

// A simulation package holds and draws from the *rand.Rand it is given.
func attach(rng factory, id int) *speaker {
	return &speaker{proc: rng.StreamN("bgp/proc/", id), jitter: rng.StreamN("bgp/jitter/", id)}
}

func (s *speaker) delay() int64 {
	return s.proc.Int63n(400) + int64(rand.NewZipf(s.jitter, 2, 1, 10).Uint64())
}
