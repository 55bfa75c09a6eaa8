package des

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
	"unsafe"
)

// oracleSeeds are the seeds the differential test walks: the edges of the
// seed normalisation (seed mod 2^31-1, negative, zero) and 200 arbitrary
// ones.
func oracleSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 1<<31 - 1, 1 << 31, -(1<<31 - 1), 89482311,
		math.MinInt64, math.MaxInt64, 1<<31 - 2,
	}
	pick := rand.New(rand.NewSource(20044))
	for len(seeds) < 210 {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	return seeds
}

// compareDraws draws n numbers from got and want and reports the first
// difference.
func compareDraws(t *testing.T, got, want rand.Source64, n int, what string) {
	t.Helper()
	for k := 0; k < n; k++ {
		// Alternate the two entry points rand.Rand uses.
		if k%3 == 2 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("%s: draw %d: Int63 = %d, math/rand gives %d", what, k, g, w)
			}
			continue
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s: draw %d: Uint64 = %d, math/rand gives %d", what, k, g, w)
		}
	}
}

// TestStreamSourceMatchesMathRand is the contract of alfg.go: for any seed,
// the stream source and rand.NewSource produce the same words — through the
// draws served without a register, the upgrade to one, and three laps of it.
func TestStreamSourceMatchesMathRand(t *testing.T) {
	for _, seed := range oracleSeeds() {
		got := newStreamSource(seed)
		want := rand.NewSource(seed).(rand.Source64)
		compareDraws(t, got, want, 2000, fmt.Sprintf("seed %d", seed))
	}

	// Stop at every boundary of the source's life — the last draw without
	// a register (272), the upgrade (273), the first read of a written word
	// (274), the reads of the last word the upgrade replayed and of the
	// first one written after it (545, 546), the register's wrap (606–608),
	// the second read of a replayed word (880) — seed again and compare a
	// second run: a re-seed must leave nothing of the old register behind.
	for _, stop := range []int{0, 272, 273, 274, 545, 546, 606, 607, 608, 880} {
		for _, seed := range []int64{0, 1, -7, math.MinInt64} {
			got := newStreamSource(seed)
			want := rand.NewSource(seed)
			what := fmt.Sprintf("seed %d, %d draws", seed, stop)
			compareDraws(t, got, want.(rand.Source64), stop, what)
			got.Seed(seed + 99)
			want.Seed(seed + 99)
			compareDraws(t, got, want.(rand.Source64), 1300, what+", re-seeded")
		}
	}
}

// TestStreamMatchesMathRand checks the same one level up: the *rand.Rand
// that Stream returns and one over rand.NewSource with the same mixed seed
// agree on the derived draws the simulator uses, and on Rand.Seed.
func TestStreamMatchesMathRand(t *testing.T) {
	got := NewRNG(1).Stream("bgp/proc/4")
	want := rand.New(rand.NewSource(int64(fnv1a(fnvOffset64, "bgp/proc/4") ^ 0x9E3779B97F4A7C15)))
	for round := 0; round < 2; round++ {
		for k := 0; k < 400; k++ {
			if g, w := got.Int63n(400_000_001), want.Int63n(400_000_001); g != w {
				t.Fatalf("round %d draw %d: Int63n = %d, math/rand gives %d", round, k, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("round %d draw %d: Float64 = %v, math/rand gives %v", round, k, g, w)
			}
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("round %d draw %d: Intn = %d, math/rand gives %d", round, k, g, w)
			}
		}
		got.Seed(12345)
		want.Seed(12345)
	}
}

// FuzzStreamSourceMatchesMathRand is the same comparison on seeds and draw
// counts the fuzzer picks; testdata/fuzz holds the seed-normalisation edges
// and the draw counts around the upgrade.
func FuzzStreamSourceMatchesMathRand(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		n := int(draws % 2048)
		got := newStreamSource(seed)
		want := rand.NewSource(seed)
		compareDraws(t, got, want.(rand.Source64), n, "first seed")
		got.Seed(^seed)
		want.Seed(^seed)
		compareDraws(t, got, want.(rand.Source64), n, "re-seeded")
	})
}

// TestStreamNMatchesStream pins StreamN to the name it stands for.
func TestStreamNMatchesStream(t *testing.T) {
	r := NewRNG(7)
	for _, prefix := range []string{"bgp/proc/", "bgp/session/", ""} {
		for _, n := range []int{0, 7, 10, 999, 123456, -3, math.MinInt64} {
			a := r.StreamN(prefix, n)
			b := r.Stream(fmt.Sprintf(prefix+"%d", n))
			for k := 0; k < 50; k++ {
				if x, y := a.Int63(), b.Int63(); x != y {
					t.Fatalf("StreamN(%q, %d) draw %d = %d, Stream of the built name gives %d", prefix, n, k, x, y)
				}
			}
		}
	}
}

// TestOpenNMatchesStreamN pins each stream of a run to the StreamN it
// stands for, and the run's cost to one allocation, its sources.
func TestOpenNMatchesStreamN(t *testing.T) {
	r := NewRNG(11)
	for _, first := range []int{0, 5, -4, 999_998} {
		out := make([]rand.Rand, 7)
		r.OpenN(out, "bgp/jitter/", first)
		for i := range out {
			want := r.StreamN("bgp/jitter/", first+i)
			for k := 0; k < 40; k++ {
				if x, y := out[i].Int63(), want.Int63(); x != y {
					t.Fatalf("OpenN(%d)[%d] draw %d = %d, StreamN gives %d", first, i, k, x, y)
				}
			}
		}
	}
	out := make([]rand.Rand, 1000)
	if got := testing.AllocsPerRun(20, func() { r.OpenN(out, "bgp/proc/", 0) }); got != 1 {
		t.Errorf("OpenN of %d streams: %v allocations, want 1", len(out), got)
	}
}

// TestStreamAllocations pins what opening a stream costs: the rand.Rand and
// a 24 B source, nothing for the name, and a register only from draw 273
// on. The rand.Rand is on the caller's stack when StreamN is inlined and its
// result does not escape.
func TestStreamAllocations(t *testing.T) {
	if size := unsafe.Sizeof(streamSource{}); size > 24 {
		t.Errorf("streamSource is %d bytes, want <= 24", size)
	}
	r := NewRNG(3)
	var sink int64
	if got := testing.AllocsPerRun(200, func() {
		sink += r.StreamN("bgp/proc/", 123456).Int63()
	}); got > 2 {
		t.Errorf("StreamN + 1 draw: %v allocations, want at most 2", got)
	}
	for _, c := range []struct{ draws, allocs int }{{rngTap, 2}, {1000, 3}} {
		if got := testing.AllocsPerRun(200, func() {
			s := r.Stream("bgp/proc/123456")
			for k := 0; k < c.draws; k++ {
				sink += s.Int63()
			}
		}); got != float64(c.allocs) {
			t.Errorf("Stream + %d draws: %v allocations, want %d", c.draws, got, c.allocs)
		}
	}
	_ = sink
}

// TestUniformSpans covers the spans Uniform must survive; (0, MaxInt64)
// used to overflow to Int63n(MinInt64) and panic.
func TestUniformSpans(t *testing.T) {
	cases := []struct {
		lo, hi time.Duration
	}{
		{0, math.MaxInt64},
		{0, math.MaxInt64 - 1},
		{5, 5},
		{7, 3},
		{0, 1},
		{100 * time.Millisecond, 500 * time.Millisecond},
	}
	for _, c := range cases {
		rng := NewRNG(1).Stream("uniform")
		for k := 0; k < 100; k++ {
			d := Uniform(rng, c.lo, c.hi)
			if c.hi <= c.lo {
				if d != c.lo {
					t.Fatalf("Uniform(%d, %d) = %d, want lo", c.lo, c.hi, d)
				}
				continue
			}
			if d < c.lo || d > c.hi {
				t.Fatalf("Uniform(%d, %d) = %d, out of range", c.lo, c.hi, d)
			}
		}
	}
}

// BenchmarkStreamDraws opens a stream and draws from it: short of the
// upgrade (10, 40, 200), just past it (300) and well past it (2,500).
func BenchmarkStreamDraws(b *testing.B) {
	for _, draws := range []int{10, 40, 200, 300, 2500} {
		b.Run(fmt.Sprintf("draws=%d", draws), func(b *testing.B) {
			r := NewRNG(1)
			var sink int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := r.StreamN("bgp/proc/", i)
				for k := 0; k < draws; k++ {
					sink += s.Int63()
				}
			}
			_ = sink
		})
	}
}
