package des

// The generator behind RNG.Stream: math/rand's additive lagged Fibonacci
// source (x[k] = x[k-607] + x[k-273] mod 2^64, seeded from a Lehmer
// sequence), reproduced bit for bit so that every draw in every digest is
// the one rand.NewSource would have produced, but paying per number drawn
// instead of 1,841 Lehmer steps and a 4.9 KB register per stream up front.
//
// Word i of a freshly seeded register is a pure function of the seed:
// Lehmer outputs 21+3i, 22+3i and 23+3i, shifted and XORed with
// rngCooked[i]. A table of 48271^(21+3i) reaches the first of the three
// in one modular multiplication (initWord).
//
// Draw k (from 0) reads words 333-k and 606-k and overwrites 333-k, which
// is not read again until draw k+273. Before draw 273 no draw reads a word
// an earlier one wrote, so draw k < 273 is initWord(333-k) + initWord(606-k),
// a pure function of the seed and k, and needs no register. A stream that
// reaches draw 273 seeds one in full and replays the 273 writes into it.
// DESIGN.md, "Random streams", has the measured draw counts: most streams
// never get there.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	rngFeed0 = rngLen - rngTap // feed index of a fresh register, before draw 0
)

// rngJump[i] is 48271^(21+3i) mod (2^31-1): the multiplier from the
// normalised seed to the first Lehmer output behind register word i.
var rngJump = func() (jump [rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = x * lehmerA % lehmerM
	}
	const cube = lehmerA * lehmerA % lehmerM * lehmerA % lehmerM
	for i := range jump {
		jump[i] = x
		x = x * cube % lehmerM
	}
	return jump
}()

// streamSource is a rand.Source64 with the sequence of rand.NewSource.
type streamSource struct {
	x0  uint64       // normalised seed, in [1, 2^31-2]
	n   int          // draws served; meaningful while reg == nil
	reg *rngRegister // nil until draw rngTap
}

// rngRegister is the state of math/rand's source.
type rngRegister struct {
	tap, feed int
	vec       [rngLen]int64
}

func newStreamSource(seed int64) *streamSource {
	return &streamSource{x0: normaliseSeed(seed)}
}

// normaliseSeed maps a seed onto the Lehmer generator's state space the way
// math/rand does.
func normaliseSeed(seed int64) uint64 {
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// Seed resets the source to the fresh state for seed, as rand.Rand.Seed
// expects; a register from the previous seed is dropped, not reused.
func (s *streamSource) Seed(seed int64) {
	*s = streamSource{x0: normaliseSeed(seed)}
}

// initWord returns word i of the register as seeding would have left it.
func (s *streamSource) initWord(i int) int64 {
	x := s.x0 * rngJump[i] % lehmerM
	u := int64(x) << 40
	x = x * lehmerA % lehmerM
	u ^= int64(x) << 20
	x = x * lehmerA % lehmerM
	u ^= int64(x)
	return u ^ rngCooked[i]
}

// upgrade gives the stream its register just before draw rngTap, the first
// to read a word an earlier draw wrote: the seeded register as rngTap draws
// leave it.
func (s *streamSource) upgrade() *rngRegister {
	r := &rngRegister{tap: rngLen - rngTap, feed: rngFeed0 - rngTap}
	for i := range r.vec {
		r.vec[i] = s.initWord(i)
	}
	for k := 0; k < rngTap; k++ {
		r.vec[rngFeed0-1-k] += r.vec[rngLen-1-k]
	}
	s.reg = r
	return r
}

func (s *streamSource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

func (s *streamSource) Uint64() uint64 {
	r := s.reg
	if r == nil {
		if k := s.n; k < rngTap {
			s.n = k + 1
			return uint64(s.initWord(rngFeed0-1-k) + s.initWord(rngLen-1-k))
		}
		r = s.upgrade()
	}

	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}

	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}

	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}
