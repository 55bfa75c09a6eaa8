package durable

import (
	"fmt"
	"io/fs"
	"sync"
	"syscall"

	"bgploop/internal/des"
)

// Op classifies a filesystem operation for fault matching.
type Op string

// The fault-eligible operations. OpWrite and OpSync fire on File
// methods; the rest fire on FS methods.
const (
	OpOpen    Op = "open"
	OpCreate  Op = "create"
	OpWrite   Op = "write"
	OpSync    Op = "sync"
	OpRename  Op = "rename"
	OpRemove  Op = "remove"
	OpMkdir   Op = "mkdir"
	OpRead    Op = "read"
	OpReadDir Op = "readdir"
	// OpAny matches every eligible operation; its sequence numbers count
	// ops of all classes in one global order.
	OpAny Op = ""
)

// FaultKind is the failure a scripted fault injects.
type FaultKind int

const (
	// FaultENOSPC fails the op with a syscall.ENOSPC-wrapping error
	// (errors.Is(err, syscall.ENOSPC) holds).
	FaultENOSPC FaultKind = iota
	// FaultEIO fails the op with a syscall.EIO-wrapping error.
	FaultEIO
	// FaultTorn applies to OpWrite only: the first TornAt bytes reach the
	// underlying file, then the write fails with EIO — the torn-write
	// model for a crash mid-append.
	FaultTorn
	// FaultCrash panics with a *CrashError, modeling a process death at
	// an exact storage op. Tests recover it with RecoverCrash.
	FaultCrash
)

// String names the kind for error messages.
func (k FaultKind) String() string {
	switch k {
	case FaultENOSPC:
		return "ENOSPC"
	case FaultEIO:
		return "EIO"
	case FaultTorn:
		return "torn-write"
	case FaultCrash:
		return "crash"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one scripted failure: the Seq'th operation of class Op (both
// zero-based, counted per class — or globally for OpAny) fails with
// Kind. Scheduling by op sequence rather than by path or time makes
// fault runs exactly replayable: the same code against the same
// schedule fails at the same op every time.
type Fault struct {
	Op     Op
	Seq    int
	Kind   FaultKind
	TornAt int // FaultTorn: bytes written before the failure
}

// FaultError is the structured error an injected fault surfaces: which
// op failed, on which path, at which sequence number, and the
// underlying errno-shaped cause (unwrapped by errors.Is, so callers
// match syscall.ENOSPC / syscall.EIO without knowing about injection).
type FaultError struct {
	Op   Op
	Path string
	Seq  int
	Err  error
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("durable: injected %v on %s %s (op #%d)", e.Err, e.Op, e.Path, e.Seq)
}

// Unwrap exposes the underlying errno to errors.Is.
func (e *FaultError) Unwrap() error { return e.Err }

// CrashError is the panic value of a FaultCrash, carrying the crash
// site for assertions.
type CrashError struct {
	Op   Op
	Path string
	Seq  int
}

// Error implements error.
func (e *CrashError) Error() string {
	return fmt.Sprintf("durable: injected crash on %s %s (op #%d)", e.Op, e.Path, e.Seq)
}

// RecoverCrash converts a recovered panic value back into the
// *CrashError a FaultCrash raised, or re-panics for any other value
// (a real bug must not be mistaken for a scripted crash). Use as:
//
//	defer func() {
//		if ce := durable.RecoverCrash(recover()); ce != nil { ... }
//	}()
func RecoverCrash(r any) *CrashError {
	if r == nil {
		return nil
	}
	if ce, ok := r.(*CrashError); ok {
		return ce
	}
	panic(r)
}

// FaultFS wraps an inner FS with a scripted fault schedule. It is safe
// for concurrent use; op sequence numbers are assigned under one lock,
// so a single-goroutine caller sees a fully deterministic schedule.
type FaultFS struct {
	inner FS

	mu     sync.Mutex
	counts map[Op]int
	global int
	faults []Fault
	fired  []bool
}

// NewFaultFS wraps inner (nil means the production filesystem) with the
// given fault schedule.
func NewFaultFS(inner FS, schedule []Fault) *FaultFS {
	return &FaultFS{
		inner:  OrOS(inner),
		counts: map[Op]int{},
		faults: append([]Fault(nil), schedule...),
		fired:  make([]bool, len(schedule)),
	}
}

// RandomSchedule derives a replayable fault schedule from a master
// seed: n faults spread over the first ops operations (any class), with
// kinds drawn among ENOSPC, EIO, and torn writes. The draws come from
// the named stream des.NewRNG(seed).Stream("durable/faults"), so the
// schedule is a pure function of the seed — rerunning a failing fault
// test with the same seed reproduces the identical failure sequence.
func RandomSchedule(seed int64, ops, n int) []Fault {
	rng := des.NewRNG(seed).Stream("durable/faults")
	if ops <= 0 || n <= 0 {
		return nil
	}
	if n > ops {
		n = ops
	}
	// Sample n distinct op indices without replacement (partial
	// Fisher-Yates over [0, ops)).
	idx := make([]int, ops)
	for i := range idx {
		idx[i] = i
	}
	out := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(ops-i)
		idx[i], idx[j] = idx[j], idx[i]
		f := Fault{Op: OpAny, Seq: idx[i]}
		switch rng.Intn(3) {
		case 0:
			f.Kind = FaultENOSPC
		case 1:
			f.Kind = FaultEIO
		default:
			f.Kind = FaultTorn
			f.TornAt = rng.Intn(16)
		}
		out = append(out, f)
	}
	return out
}

// Ops returns how many fault-eligible operations have been observed per
// class, plus the global count under OpAny — the numbers to script the
// next schedule against.
func (f *FaultFS) Ops() map[Op]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := map[Op]int{OpAny: f.global}
	for op, n := range f.counts { //detlint:allow maprange copying into a map, no ordered observation
		out[op] = n
	}
	return out
}

// check assigns the next sequence number for op and returns the fault
// scheduled for it, if any.
func (f *FaultFS) check(op Op, path string) (Fault, int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	seq := f.counts[op]
	gseq := f.global
	f.counts[op] = seq + 1
	f.global = gseq + 1
	for i, fl := range f.faults {
		if f.fired[i] {
			continue
		}
		if (fl.Op == OpAny && fl.Seq == gseq) || (fl.Op == op && fl.Seq == seq) {
			f.fired[i] = true
			if fl.Op == OpAny {
				return fl, gseq, true
			}
			return fl, seq, true
		}
	}
	return Fault{}, 0, false
}

// fail materializes a matched fault into an error (or a crash panic).
// FaultTorn is handled by the caller for writes; anywhere else it
// degrades to EIO.
func fail(fl Fault, op Op, path string, seq int) error {
	switch fl.Kind {
	case FaultENOSPC:
		return &FaultError{Op: op, Path: path, Seq: seq, Err: syscall.ENOSPC}
	case FaultCrash:
		panic(&CrashError{Op: op, Path: path, Seq: seq})
	default:
		return &FaultError{Op: op, Path: path, Seq: seq, Err: syscall.EIO}
	}
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if fl, seq, ok := f.check(OpOpen, name); ok {
		return nil, fail(fl, OpOpen, name, seq)
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if fl, seq, ok := f.check(OpCreate, dir); ok {
		return nil, fail(fl, OpCreate, dir, seq)
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if fl, seq, ok := f.check(OpRename, newpath); ok {
		return fail(fl, OpRename, newpath, seq)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if fl, seq, ok := f.check(OpRemove, name); ok {
		return fail(fl, OpRemove, name, seq)
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if fl, seq, ok := f.check(OpMkdir, path); ok {
		return fail(fl, OpMkdir, path, seq)
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if fl, seq, ok := f.check(OpRead, name); ok {
		return nil, fail(fl, OpRead, name, seq)
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if fl, seq, ok := f.check(OpReadDir, name); ok {
		return nil, fail(fl, OpReadDir, name, seq)
	}
	return f.inner.ReadDir(name)
}

// faultFile interposes on the per-file ops (write, sync) so torn writes
// and fsync failures land exactly where the schedule says.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Name() string { return f.inner.Name() }

func (f *faultFile) Write(p []byte) (int, error) {
	if fl, seq, ok := f.fs.check(OpWrite, f.inner.Name()); ok {
		if fl.Kind == FaultTorn {
			n := fl.TornAt
			if n > len(p) {
				n = len(p)
			}
			wrote, _ := f.inner.Write(p[:n])
			return wrote, &FaultError{Op: OpWrite, Path: f.inner.Name(), Seq: seq, Err: syscall.EIO}
		}
		return 0, fail(fl, OpWrite, f.inner.Name(), seq)
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if fl, seq, ok := f.fs.check(OpSync, f.inner.Name()); ok {
		return fail(fl, OpSync, f.inner.Name(), seq)
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error { return f.inner.Close() }
