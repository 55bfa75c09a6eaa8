package sweep

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"

	"bgploop/internal/durable"
)

// TestCacheWriteSurfacesFaults: ENOSPC and EIO during the cache's
// temp-write-rename sequence come back as structured errors from
// sweep.Run, and no torn object is left under the key (table-driven
// over FaultFS schedules — the satellite coverage for cache writes).
func TestCacheWriteSurfacesFaults(t *testing.T) {
	cases := []struct {
		name  string
		fault durable.Fault
		errno error
	}{
		{"enospc-on-write", durable.Fault{Op: durable.OpWrite, Kind: durable.FaultENOSPC}, syscall.ENOSPC},
		{"eio-on-write", durable.Fault{Op: durable.OpWrite, Kind: durable.FaultEIO}, syscall.EIO},
		{"eio-on-sync", durable.Fault{Op: durable.OpSync, Kind: durable.FaultEIO}, syscall.EIO},
		{"enospc-on-rename", durable.Fault{Op: durable.OpRename, Kind: durable.FaultENOSPC}, syscall.ENOSPC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fsys := durable.NewFaultFS(nil, []durable.Fault{tc.fault})
			cache, err := OpenCacheFS(dir, fsys)
			if err != nil {
				t.Fatal(err)
			}
			var executed []int
			_, err = Run(context.Background(), 1, countingTask(&executed), Options[int]{
				Workers: 1,
				Codec:   intCodec(),
				Cache:   cache,
			})
			if !errors.Is(err, tc.errno) {
				t.Fatalf("run error = %v, want %v", err, tc.errno)
			}
			var fe *durable.FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("error is not a structured FaultError: %v", err)
			}
			// The failed write must not have installed a (torn) object.
			if _, err := os.Stat(filepath.Join(dir, "objects", testKey(0)[:2], testKey(0))); !errors.Is(err, os.ErrNotExist) {
				t.Error("a failed cache write left an object behind")
			}
		})
	}
}

// TestCacheWriteFaultStopsPool: a failed cache write aborts the pool —
// in-flight trials are canceled and no new one starts — instead of the
// remaining trials all running before the error is returned.
func TestCacheWriteFaultStopsPool(t *testing.T) {
	const trials, workers = 64, 2
	fsys := durable.NewFaultFS(nil, []durable.Fault{{Op: durable.OpWrite, Kind: durable.FaultENOSPC}})
	cache, err := OpenCacheFS(t.TempDir(), fsys)
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int32
	task := func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		return 1000 + i, nil
	}
	_, err = Run(context.Background(), trials, task, Options[int]{Workers: workers, Codec: intCodec(), Cache: cache})
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("run error = %v, want ENOSPC", err)
	}
	// One merged trial, a full result buffer, and one more per worker.
	if got := ran.Load(); got > 2*workers+1 {
		t.Errorf("%d of %d tasks ran, want the failed write to stop the pool after at most %d", got, trials, 2*workers+1)
	}
}

// TestJournalAppendSurfacesFaults: ENOSPC and EIO on the journal append
// path (write with sync=never, fsync with sync=always) surface as
// structured errors from sweep.Run (table-driven over FaultFS schedules
// — the satellite coverage for journal appends).
func TestJournalAppendSurfacesFaults(t *testing.T) {
	cases := []struct {
		name      string
		fault     durable.Fault
		syncEvery int
		errno     error
	}{
		{"enospc-on-write", durable.Fault{Op: durable.OpWrite, Kind: durable.FaultENOSPC}, 0, syscall.ENOSPC},
		{"eio-on-write", durable.Fault{Op: durable.OpWrite, Kind: durable.FaultEIO}, 0, syscall.EIO},
		{"eio-on-sync", durable.Fault{Op: durable.OpSync, Kind: durable.FaultEIO}, 1, syscall.EIO},
		{"torn-write", durable.Fault{Op: durable.OpWrite, Kind: durable.FaultTorn, TornAt: 4}, 0, syscall.EIO},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			fsys := durable.NewFaultFS(nil, []durable.Fault{tc.fault})
			j, err := OpenJournalOpts(path, false, JournalOptions{FS: fsys, SyncEvery: tc.syncEvery})
			if err != nil {
				t.Fatal(err)
			}
			var executed []int
			_, err = Run(context.Background(), 1, countingTask(&executed), Options[int]{
				Workers: 1,
				Codec:   intCodec(),
				Journal: j,
			})
			if !errors.Is(err, tc.errno) {
				t.Fatalf("run error = %v, want %v", err, tc.errno)
			}
			if !strings.Contains(err.Error(), "journal") {
				t.Errorf("error does not name the journal: %v", err)
			}
		})
	}
}

// TestJournalSyncPolicy pins the fsync cadence: with SyncEvery=N over
// 6 appends the file fsyncs twice during the run, and Close always adds
// the final fsync regardless of policy.
func TestJournalSyncPolicy(t *testing.T) {
	cases := []struct {
		name       string
		syncEvery  int
		appends    int
		wantSyncs  int // before Close
		closeSyncs int // Close's unconditional fsync
	}{
		{"never", 0, 6, 0, 1},
		{"always", 1, 6, 6, 1},
		{"every-3", 3, 6, 2, 1},
		{"every-4-partial", 4, 6, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal.jsonl")
			fsys := durable.NewFaultFS(nil, nil) // no faults; just the op counters
			j, err := OpenJournalOpts(path, false, JournalOptions{FS: fsys, SyncEvery: tc.syncEvery})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.appends; i++ {
				if err := j.Append(i, testKey(i), []byte("1")); err != nil {
					t.Fatal(err)
				}
			}
			if got := fsys.Ops()[durable.OpSync]; got != tc.wantSyncs {
				t.Fatalf("after %d appends: %d fsyncs, want %d", tc.appends, got, tc.wantSyncs)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if got := fsys.Ops()[durable.OpSync]; got != tc.wantSyncs+tc.closeSyncs {
				t.Fatalf("after Close: %d fsyncs, want %d", got, tc.wantSyncs+tc.closeSyncs)
			}
		})
	}
}

// TestJournalTornTailRecoveryWithSyncNever pins the satellite
// requirement: even with sync=never (flush-only appends), a journal cut
// mid-line resumes from every whole entry and re-executes only the torn
// one.
func TestJournalTornTailRecoveryWithSyncNever(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := OpenJournalOpts(path, false, JournalOptions{SyncEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	var executed []int
	if _, err := Run(context.Background(), 3, countingTask(&executed), Options[int]{
		Workers: 1,
		Codec:   intCodec(),
		Journal: j,
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final line in half, as a kill mid-append would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	torn := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournalOpts(path, true, JournalOptions{SyncEvery: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j2.Close() }()
	if j2.Len() != 2 {
		t.Fatalf("resumed journal has %d entries, want the 2 whole ones", j2.Len())
	}
	executed = nil
	out, err := Run(context.Background(), 3, countingTask(&executed), Options[int]{
		Workers: 1,
		Codec:   intCodec(),
		Journal: j2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Resumed != 2 || out.Stats.Executed != 1 || len(executed) != 1 {
		t.Fatalf("resume stats = %+v (executed %d), want 2 resumed / 1 executed", out.Stats, executed)
	}
}

// TestCacheQuarantinesCorruptObject: a cache object that fails to decode
// is moved to quarantine/ (evidence preserved), counted in
// Stats.Quarantined, and the trial re-executes and overwrites it with a
// fresh object.
func TestCacheQuarantinesCorruptObject(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var executed []int
	if _, err := Run(context.Background(), 2, countingTask(&executed), Options[int]{
		Workers: 1,
		Codec:   intCodec(),
		Cache:   cache,
	}); err != nil {
		t.Fatal(err)
	}

	// Rot trial 0's object.
	key := testKey(0)
	objPath := filepath.Join(dir, "objects", key[:2], key)
	if err := os.WriteFile(objPath, []byte("not-a-result"), 0o644); err != nil {
		t.Fatal(err)
	}

	executed = nil
	out, err := Run(context.Background(), 2, countingTask(&executed), Options[int]{
		Workers: 1,
		Codec:   intCodec(),
		Cache:   cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Quarantined != 1 || out.Stats.CacheHits != 1 || out.Stats.Executed != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined / 1 hit / 1 executed", out.Stats)
	}
	// The evidence moved to quarantine/ ...
	qdata, err := os.ReadFile(filepath.Join(dir, "quarantine", key))
	if err != nil {
		t.Fatalf("quarantined object missing: %v", err)
	}
	if string(qdata) != "not-a-result" {
		t.Fatalf("quarantined bytes = %q, want the corrupt original", qdata)
	}
	// ... and a fresh object took its place.
	if data, err := os.ReadFile(objPath); err != nil || string(data) == "not-a-result" {
		t.Fatalf("object not rewritten: %q, %v", data, err)
	}
	// A third run is clean: all hits, nothing quarantined.
	out, err = Run(context.Background(), 2, countingTask(&executed), Options[int]{
		Workers: 1,
		Codec:   intCodec(),
		Cache:   cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Quarantined != 0 || out.Stats.CacheHits != 2 {
		t.Fatalf("post-heal stats = %+v, want 0 quarantined / 2 hits", out.Stats)
	}
}

// TestCacheCrashDuringPutLeavesNoTornObject: a scripted crash between
// the temp write and the rename must not leave a readable object — the
// next run misses and re-executes.
func TestCacheCrashDuringPutLeavesNoTornObject(t *testing.T) {
	dir := t.TempDir()
	fsys := durable.NewFaultFS(nil, []durable.Fault{{Op: durable.OpRename, Kind: durable.FaultCrash}})
	cache, err := OpenCacheFS(dir, fsys)
	if err != nil {
		t.Fatal(err)
	}
	var ce *durable.CrashError
	func() {
		defer func() { ce = durable.RecoverCrash(recover()) }()
		var executed []int
		_, _ = Run(context.Background(), 1, countingTask(&executed), Options[int]{
			Workers: 1,
			Codec:   intCodec(),
			Cache:   cache,
		})
	}()
	if ce == nil || ce.Op != durable.OpRename {
		t.Fatalf("crash = %+v, want an OpRename crash", ce)
	}

	// The "restarted process" opens the same directory on a clean FS.
	cache2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cache2.Get(testKey(0)); err != nil || ok {
		t.Fatalf("torn put visible after crash: ok=%v err=%v", ok, err)
	}
	var executed []int
	out, err := Run(context.Background(), 1, countingTask(&executed), Options[int]{
		Workers: 1,
		Codec:   intCodec(),
		Cache:   cache2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Executed != 1 || out.Stats.Quarantined != 0 {
		t.Fatalf("post-crash stats = %+v, want a clean re-execute", out.Stats)
	}
}
