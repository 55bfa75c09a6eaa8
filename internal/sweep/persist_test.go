package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// countingTask returns a deterministic result per trial and counts how
// many trials were actually simulated. Workers run it concurrently, so the
// append is locked; the caller reads executed after Run returns.
func countingTask(executed *[]int) Task[int] {
	var mu sync.Mutex
	return func(_ context.Context, i int) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		*executed = append(*executed, i)
		return 1000 + i, nil
	}
}

// TestCacheServesUnchangedTrials: the acceptance criterion "a re-run of
// an unchanged sweep with the cache enabled re-simulates zero trials",
// with the hit/miss accounting checked on both sides.
func TestCacheServesUnchangedTrials(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const trials = 10
	var executed []int
	opts := Options[int]{Workers: 2, Codec: intCodec(), Cache: cache}
	first, err := Run(context.Background(), trials, countingTask(&executed), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != trials || first.Stats.CacheMisses != trials || first.Stats.CacheHits != 0 {
		t.Fatalf("cold run: executed %d, stats %+v", len(executed), first.Stats)
	}

	executed = nil
	second, err := Run(context.Background(), trials, countingTask(&executed), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != 0 {
		t.Errorf("warm run re-simulated trials %v, want none", executed)
	}
	if second.Stats.CacheHits != trials || second.Stats.Executed != 0 {
		t.Errorf("warm run stats %+v, want %d hits and 0 executed", second.Stats, trials)
	}
	for i := 0; i < trials; i++ {
		if second.Results[i] != first.Results[i] || second.Source[i] != SourceCache {
			t.Errorf("trial %d: result %d source %v", i, second.Results[i], second.Source[i])
		}
	}
}

// TestEachResultEncodedOnce: a sweep persists each result from the bytes
// it arrived with and encodes only results that arrived without any —
// once each, by the merger or by the Flight leader whose bytes the
// merger reuses. Remote payloads are stored as they came, and a warm
// re-run encodes nothing.
func TestEachResultEncodedOnce(t *testing.T) {
	const trials = 16
	cases := []struct {
		name           string
		flight, remote bool
		want           int32
	}{
		{"cache", false, false, trials},
		{"cache+flight", true, false, trials},
		{"cache+remote", false, true, 0},
		{"cache+flight+remote", true, true, 0},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				cache, err := OpenCache(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				var encodes atomic.Int32
				codec := intCodec()
				encode := codec.Encode
				codec.Encode = func(v int) ([]byte, error) {
					encodes.Add(1)
					return encode(v)
				}
				opts := Options[int]{Workers: workers, Codec: codec, Cache: cache}
				if tc.flight {
					opts.Flight = NewFlight()
				}
				if tc.remote {
					opts.Remote = func(_ context.Context, i int, _ string) ([]byte, error) { return json.Marshal(1000 + i) }
				}
				task := func(_ context.Context, i int) (int, error) { return 1000 + i, nil }

				out, err := Run(context.Background(), trials, task, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := encodes.Load(); got != tc.want {
					t.Errorf("cold run: %d encodes, want %d", got, tc.want)
				}
				for i := 0; i < trials; i++ {
					if !out.Done(i) || out.Results[i] != 1000+i {
						t.Fatalf("trial %d: status %v result %d", i, out.Status[i], out.Results[i])
					}
				}

				encodes.Store(0)
				out, err = Run(context.Background(), trials, task, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := encodes.Load(); got != 0 || out.Stats.CacheHits != trials {
					t.Errorf("warm run: %d encodes, stats %+v; want 0 encodes and %d hits", got, out.Stats, trials)
				}
			})
		}
	}
}

// TestCacheKeyChangeMisses: a changed content address (spec change) must
// miss and re-execute rather than serve the stale object.
func TestCacheKeyChangeMisses(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var executed []int
	opts := Options[int]{Workers: 1, Codec: intCodec(), Cache: cache}
	if _, err := Run(context.Background(), 4, countingTask(&executed), opts); err != nil {
		t.Fatal(err)
	}

	changed := opts
	changed.Codec.Key = func(i int) string { return fmt.Sprintf("%064x", 1_000_000+i) }
	executed = nil
	out, err := Run(context.Background(), 4, countingTask(&executed), changed)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != 4 || out.Stats.CacheHits != 0 {
		t.Errorf("changed keys: executed %d, stats %+v; want a full re-run", len(executed), out.Stats)
	}
}

// TestCacheCorruptObjectIsAMiss: an object that no longer decodes must be
// treated as a miss (and get overwritten), not fail the sweep.
func TestCacheCorruptObjectIsAMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var executed []int
	opts := Options[int]{Workers: 1, Codec: intCodec(), Cache: cache}
	if _, err := Run(context.Background(), 3, countingTask(&executed), opts); err != nil {
		t.Fatal(err)
	}
	k := testKey(1)
	obj := filepath.Join(dir, "objects", k[:2], k)
	if err := os.WriteFile(obj, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	executed = nil
	out, err := Run(context.Background(), 3, countingTask(&executed), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(executed) != 1 || executed[0] != 1 {
		t.Fatalf("executed %v, want exactly the corrupted trial 1", executed)
	}
	if out.Stats.CacheHits != 2 || out.Stats.CacheMisses != 1 {
		t.Errorf("stats %+v, want 2 hits / 1 miss", out.Stats)
	}
	// The re-executed result must have repaired the object.
	executed = nil
	if _, err := Run(context.Background(), 3, countingTask(&executed), opts); err != nil {
		t.Fatal(err)
	}
	if len(executed) != 0 {
		t.Errorf("corrupt object was not overwritten; re-executed %v", executed)
	}
}

// TestCacheRejectsMalformedKeys guards the on-disk layout against path
// tricks and non-canonical addresses.
func TestCacheRejectsMalformedKeys(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "ab", "../../escape", "UPPERCASE00"} {
		if err := cache.Put(key, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted a malformed key", key)
		}
		if _, _, err := cache.Get(key); err == nil {
			t.Errorf("Get(%q) accepted a malformed key", key)
		}
	}
}

// TestJournalResume: a journaled sweep replays its completed trials on
// resume and only executes the remainder.
func TestJournalResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	// Interrupted first run: only trials 0..3 complete (fail-fast at 4).
	task := func(_ context.Context, i int) (int, error) {
		if i == 4 {
			return 0, errSynthetic
		}
		return 1000 + i, nil
	}
	opts := Options[int]{Workers: 1, FailFast: true, Codec: intCodec(), Journal: j}
	if _, err := Run(context.Background(), 8, task, opts); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume with a healthy task: 0..3 replay, 4..7 execute.
	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j2.Close() }()
	if j2.Len() != 4 {
		t.Fatalf("journal loaded %d entries, want 4", j2.Len())
	}
	var executed []int
	opts2 := Options[int]{Workers: 1, Codec: intCodec(), Journal: j2}
	out, err := Run(context.Background(), 8, countingTask(&executed), opts2)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Resumed != 4 || out.Stats.Executed != 4 {
		t.Errorf("stats %+v, want 4 resumed / 4 executed", out.Stats)
	}
	for i := 0; i < 8; i++ {
		want := SourceJournal
		if i >= 4 {
			want = SourceExecuted
		}
		if out.Results[i] != 1000+i || out.Source[i] != want {
			t.Errorf("trial %d: result %d source %v", i, out.Results[i], out.Source[i])
		}
	}
}

// TestJournalKeyMismatchInvalidates: a journal entry whose content
// address no longer matches (the spec changed between runs) must be
// ignored, so the trial re-executes under the new spec.
func TestJournalKeyMismatchInvalidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var executed []int
	if _, err := Run(context.Background(), 3, countingTask(&executed),
		Options[int]{Workers: 1, Codec: intCodec(), Journal: j}); err != nil {
		t.Fatal(err)
	}
	_ = j.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j2.Close() }()
	changed := intCodec()
	changed.Key = func(i int) string { return fmt.Sprintf("%064x", 7_000_000+i) }
	executed = nil
	out, err := Run(context.Background(), 3, countingTask(&executed),
		Options[int]{Workers: 1, Codec: changed, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Resumed != 0 || len(executed) != 3 {
		t.Errorf("stale journal replayed: stats %+v, executed %v", out.Stats, executed)
	}
}

// TestJournalToleratesTornTail: a kill mid-write leaves a torn final
// line; the loader must keep every complete entry and drop the tail.
func TestJournalToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	var executed []int
	if _, err := Run(context.Background(), 3, countingTask(&executed),
		Options[int]{Workers: 1, Codec: intCodec(), Journal: j}); err != nil {
		t.Fatal(err)
	}
	_ = j.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"trial":3,"key":"dead`); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatalf("torn tail must not poison the resume: %v", err)
	}
	defer func() { _ = j2.Close() }()
	if j2.Len() != 3 {
		t.Errorf("loaded %d entries, want the 3 complete ones", j2.Len())
	}
}

// TestResumeAfterCancelReproducesFullRun: interrupt a journaled sweep via
// context cancellation, then resume it; the final outcome must equal an
// uninterrupted run's.
func TestResumeAfterCancelReproducesFullRun(t *testing.T) {
	uninterrupted, err := Run(context.Background(), 8,
		func(_ context.Context, i int) (int, error) { return 1000 + i, nil },
		Options[int]{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	interrupted := func(tctx context.Context, i int) (int, error) {
		if i == 4 {
			cancel() // simulate Ctrl-C mid-sweep
			return 0, tctx.Err()
		}
		return 1000 + i, nil
	}
	out, err := Run(ctx, 8, interrupted, Options[int]{Workers: 1, Codec: intCodec(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	_ = j.Close()
	if out.Stats.Executed != 4 || out.Stats.Canceled != 4 {
		t.Fatalf("interrupted stats %+v, want 4 executed / 4 canceled", out.Stats)
	}

	j2, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j2.Close() }()
	var executed []int
	resumed, err := Run(context.Background(), 8, countingTask(&executed),
		Options[int]{Workers: 1, Codec: intCodec(), Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.Resumed != 4 || resumed.Stats.Executed != 4 {
		t.Errorf("resume stats %+v, want 4 resumed / 4 executed", resumed.Stats)
	}
	for i := 0; i < 8; i++ {
		if resumed.Results[i] != uninterrupted.Results[i] {
			t.Errorf("trial %d: resumed %d, uninterrupted %d", i, resumed.Results[i], uninterrupted.Results[i])
		}
	}
}
