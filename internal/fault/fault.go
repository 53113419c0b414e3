// Package fault is the file-I/O fault-injection plane: a narrow filesystem
// seam (FS / File) that production code threads through every I/O site, an
// identity implementation (OS) that delegates straight to package os, and a
// deterministic, seeded Injector that wraps any FS with a schedule of
// failures — EIO on the k-th write, ENOSPC past a byte budget, one-shot or
// sticky fsync failure, short (torn) writes, injected latency — matched per
// operation kind and per path.
//
// The seam exists so that failure handling is *testable*: a subsystem that
// accepts an FS (internal/wal today; the wire-protocol server and
// log-shipping replicas are expected to reuse the same schedule API for
// socket faults) can be driven through every error path it claims to
// survive, deterministically, under the race detector. Production callers
// pass OS and pay one interface dispatch per I/O call — no wrapper
// allocation: OS hands back *os.File itself.
package fault

import (
	"errors"
	"io/fs"
	"os"
	"syscall"
)

// Op is a bitmask of file-operation kinds, used both to tag injected errors
// and to select which calls a Rule matches.
type Op uint16

const (
	OpOpen Op = 1 << iota
	OpWrite
	OpSync
	OpClose
	OpRename
	OpRemove
	OpTruncate
	OpRead    // whole-file reads (FS.ReadFile)
	OpReadDir // directory listings
	OpMkdir
)

func (o Op) String() string {
	switch o {
	case OpOpen:
		return "open"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpClose:
		return "close"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpTruncate:
		return "truncate"
	case OpRead:
		return "read"
	case OpReadDir:
		return "readdir"
	case OpMkdir:
		return "mkdir"
	}
	return "op"
}

// File is the per-file surface the WAL needs. *os.File implements it.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Truncate(size int64) error
	Name() string
}

// FS is the filesystem surface the WAL needs. Implementations: OS (the real
// filesystem) and *Injector (any FS plus a fault schedule).
type FS interface {
	// OpenFile opens name with os.OpenFile semantics. Opening a directory
	// read-only (flag 0) for a directory fsync is part of the contract.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	Remove(name string) error
	Rename(oldpath, newpath string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir returns the sorted entry names (not full paths) of dir.
	ReadDir(dir string) ([]string, error)
}

// OS is the identity FS: every call delegates to package os, and OpenFile
// returns the *os.File itself — the passthrough adds no wrapper and no
// buffering, so production behaviour is byte-identical to direct os calls.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)   { return os.ReadFile(name) }
func (osFS) Remove(name string) error               { return os.Remove(name) }
func (osFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (osFS) MkdirAll(path string, perm os.FileMode) error {
	return os.MkdirAll(path, perm)
}

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil
}

// Error classes the Injector injects by default. They are the raw errnos so
// that errors.Is matches what a real kernel would have returned.
var (
	EIO    error = syscall.EIO
	ENOSPC error = syscall.ENOSPC
)

// Error is an injected fault, wrapping the error class so callers can both
// recognize injection (errors.As) and classify the underlying errno
// (errors.Is).
type Error struct {
	Op   Op
	Path string
	Err  error
}

func (e *Error) Error() string {
	return "fault injected: " + e.Op.String() + " " + e.Path + ": " + e.Err.Error()
}

func (e *Error) Unwrap() error { return e.Err }

// Transient reports whether err is a transient-class I/O error — one that a
// retry against the same filesystem can plausibly outlive (the disk healing,
// space being freed) — as opposed to a permanent condition (missing file,
// closed fd, read-only filesystem) that retrying verbatim cannot fix.
// Callers with retained state retry transient errors with backoff and fall
// through to their degraded-mode policy immediately on permanent ones.
func Transient(err error) bool {
	for _, t := range []error{syscall.EIO, syscall.ENOSPC, syscall.EINTR, syscall.EAGAIN, syscall.ETIMEDOUT, syscall.EDQUOT} {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}

// NotExist reports whether err means the path is gone — shared shorthand for
// the callers that treat "already removed" as success.
func NotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
