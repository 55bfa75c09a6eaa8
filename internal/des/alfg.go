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
// in one modular multiplication, so a word is computed when a draw first
// reads it (initWord) rather than when the stream is made.
//
// Draw k (from 0) reads words 333-k and 606-k and overwrites 333-k, which
// is not read again until draw k+273. The first compactDraws draws
// therefore need no register at all: each is the sum of two initial words,
// kept in first[k] until a register exists to hold it. DESIGN.md, "Random
// streams", has the measured draw counts that set compactDraws.

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	lehmerA  = 48271
	lehmerM  = 1<<31 - 1
	haveLen  = (rngLen + 63) / 64
	rngFeed0 = rngLen - rngTap // feed index of a fresh register, before draw 0

	// compactDraws is how many draws a stream serves without a register.
	compactDraws = 16
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
	x0    uint64              // normalised seed, in [1, 2^31-2]
	n     int                 // draws served from first; meaningful while reg == nil
	first [compactDraws]int64 // draws 0..n-1, i.e. register words 333..334-n
	reg   *rngRegister        // nil until draw compactDraws
}

// rngRegister is the feedback register, seeded word by word.
type rngRegister struct {
	tap, feed int
	have      [haveLen]uint64 // bit i set: vec[i] is live, not still to be seeded
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

// live reports whether vec[i] holds a value; if not, word i is still to be
// seeded.
func (r *rngRegister) live(i int) bool {
	return r.have[i>>6]&(1<<(i&63)) != 0
}

// set stores x in word i and marks it live.
func (r *rngRegister) set(i int, x int64) {
	r.have[i>>6] |= 1 << (i & 63)
	r.vec[i] = x
}

// upgrade gives the stream its register after compactDraws draws: the words
// those draws wrote are live, every other word is still to be seeded.
func (s *streamSource) upgrade() *rngRegister {
	r := &rngRegister{tap: rngLen - compactDraws, feed: rngFeed0 - compactDraws}
	for k, x := range s.first {
		r.set(rngFeed0-1-k, x)
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
		if k := s.n; k < compactDraws {
			x := s.initWord(rngFeed0-1-k) + s.initWord(rngLen-1-k)
			s.first[k] = x
			s.n = k + 1
			return uint64(x)
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

	if !r.live(r.feed) {
		r.set(r.feed, s.initWord(r.feed))
	}
	if !r.live(r.tap) {
		r.set(r.tap, s.initWord(r.tap))
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}
