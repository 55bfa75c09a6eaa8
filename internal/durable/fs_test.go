package durable

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// TestWriteFileAtomicRoundTrip pins the happy path: the file appears
// with the exact contents and no tmp-* droppings remain.
func TestWriteFileAtomicRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "obj")
	if err := WriteFileAtomic(nil, path, []byte("payload"), true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "payload" {
		t.Fatalf("content = %q", data)
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want just the object", len(entries))
	}
}

// TestFaultFSInjectsByOpSequence pins the scheduling contract: the
// Seq'th op of the scripted class fails, everything before and after
// succeeds, and the error unwraps to the scripted errno.
func TestFaultFSInjectsByOpSequence(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(nil, []Fault{
		{Op: OpWrite, Seq: 2, Kind: FaultENOSPC},
		{Op: OpSync, Seq: 0, Kind: FaultEIO},
	})
	f, err := fsys.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := f.Write([]byte("ok")); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	_, err = f.Write([]byte("boom"))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("third write error = %v, want ENOSPC", err)
	}
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Op != OpWrite || fe.Seq != 2 {
		t.Fatalf("structured error = %+v", fe)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("first sync error = %v, want EIO", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultFSTornWrite pins the torn-write model: exactly TornAt bytes
// land in the file before the failure.
func TestFaultFSTornWrite(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(nil, []Fault{{Op: OpWrite, Seq: 0, Kind: FaultTorn, TornAt: 3}})
	path := filepath.Join(dir, "torn")
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn write error = %v, want EIO", err)
	}
	if n != 3 {
		t.Fatalf("torn write reported %d bytes, want 3", n)
	}
	_ = f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "abc" {
		t.Fatalf("file content = %q, want the torn prefix \"abc\"", data)
	}
}

// TestFaultFSCrashPoint pins the crash model: the scripted op panics
// with a *CrashError that RecoverCrash converts back.
func TestFaultFSCrashPoint(t *testing.T) {
	fsys := NewFaultFS(nil, []Fault{{Op: OpRename, Seq: 0, Kind: FaultCrash}})
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CrashError
	func() {
		defer func() { ce = RecoverCrash(recover()) }()
		_ = fsys.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b"))
		t.Error("rename returned instead of crashing")
	}()
	if ce == nil || ce.Op != OpRename {
		t.Fatalf("crash = %+v, want an OpRename crash", ce)
	}
	// The crash happened before the rename reached the real filesystem.
	if _, err := os.Stat(filepath.Join(dir, "b")); !errors.Is(err, os.ErrNotExist) {
		t.Error("rename took effect despite the crash")
	}
}

// TestRecoverCrashRepanicsOnRealBugs: a non-crash panic value must not
// be swallowed.
func TestRecoverCrashRepanicsOnRealBugs(t *testing.T) {
	defer func() {
		if r := recover(); r != "real bug" {
			t.Fatalf("recovered %v, want the original panic", r)
		}
	}()
	func() {
		defer func() { RecoverCrash(recover()) }()
		panic("real bug")
	}()
}

// TestRandomScheduleReplayable pins the seeded-schedule contract: the
// same seed yields byte-identical schedules, a different seed differs,
// and seed 42 draws the schedule it drew while the stream was a local
// copy of des.RNG.Stream("durable/faults"), so every seeded chaos
// schedule stays the same.
func TestRandomScheduleReplayable(t *testing.T) {
	a := RandomSchedule(42, 100, 8)
	b := RandomSchedule(42, 100, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	want := []Fault{
		{Op: OpAny, Seq: 63, Kind: FaultTorn, TornAt: 14},
		{Op: OpAny, Seq: 4, Kind: FaultTorn, TornAt: 10},
		{Op: OpAny, Seq: 43, Kind: FaultTorn, TornAt: 13},
		{Op: OpAny, Seq: 99, Kind: FaultEIO},
		{Op: OpAny, Seq: 94, Kind: FaultTorn, TornAt: 5},
		{Op: OpAny, Seq: 38, Kind: FaultENOSPC},
		{Op: OpAny, Seq: 90, Kind: FaultEIO},
		{Op: OpAny, Seq: 40, Kind: FaultENOSPC},
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatalf("RandomSchedule(42, 100, 8) = %+v, want %+v", a, want)
	}
	if len(a) != 8 {
		t.Fatalf("schedule has %d faults, want 8", len(a))
	}
	seen := map[int]bool{}
	for _, f := range a {
		if f.Op != OpAny || f.Seq < 0 || f.Seq >= 100 {
			t.Fatalf("fault out of range: %+v", f)
		}
		if seen[f.Seq] {
			t.Fatalf("duplicate op index %d", f.Seq)
		}
		seen[f.Seq] = true
	}
	if c := RandomSchedule(43, 100, 8); reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical schedules")
	}
}

// TestFaultFSGlobalSequence: an OpAny fault counts operations of every
// class in one global order.
func TestFaultFSGlobalSequence(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFaultFS(nil, []Fault{{Op: OpAny, Seq: 2, Kind: FaultEIO}})
	if err := fsys.MkdirAll(filepath.Join(dir, "d"), 0o755); err != nil { // op 0
		t.Fatal(err)
	}
	f, err := fsys.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644) // op 1
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.EIO) { // op 2 — fails
		t.Fatalf("third global op error = %v, want EIO", err)
	}
	if _, err := f.Write([]byte("x")); err != nil { // op 3 — fine again
		t.Fatal(err)
	}
}
