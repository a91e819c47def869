package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// Multi-process locking. The store's writes are individually atomic, but two
// processes interleaving read-modify-write cycles (two schedulers resuming
// the same batch, a fleet coordinator plus a stray `compi sched`) would race
// each other's campaign index and manifests. An advisory lockfile makes that a
// refused Open instead of silent corruption: the first opener creates
// LOCK (O_EXCL, so creation is the atomic acquire) recording its PID; later
// openers from other processes get a *LockHeldError naming the holder.
//
// The lock is self-cleaning: a holder that exited without Close leaves a
// LOCK whose PID no longer runs, and the next Open steals it. Liveness is
// probed with signal 0 — EPERM counts as alive (the process exists, we just
// may not signal it). Re-opening from the holder process itself succeeds
// without taking ownership, so one process may hold several *Store handles
// on a directory and the first handle's Close releases the lock.

// lockFileName is the advisory lockfile inside a store directory.
const lockFileName = "LOCK"

// lockInfo is the lockfile content: enough to name the holder in errors.
type lockInfo struct {
	PID      int    `json:"pid"`
	Acquired string `json:"acquired,omitempty"`
}

// LockHeldError reports that another live process holds a store's lock.
type LockHeldError struct {
	Dir string
	PID int
}

func (e *LockHeldError) Error() string {
	return fmt.Sprintf("store: %s is locked by running process %d (stale locks from dead processes are reclaimed automatically; remove %s only if that PID is not a store user)",
		e.Dir, e.PID, filepath.Join(e.Dir, lockFileName))
}

// pidAlive reports whether pid names a running process. Signal 0 performs
// the existence check without delivering anything; EPERM means the process
// exists but belongs to someone else, which still counts as alive.
func pidAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	err := syscall.Kill(pid, 0)
	return err == nil || err == syscall.EPERM
}

// acquireLock takes the store lock for this process. It returns owns=true
// when this call created the lockfile (and Close should remove it), and
// owns=false when the lock was already held by this same process. A lock
// held by another live process is a *LockHeldError.
func acquireLock(dir string) (owns bool, err error) {
	path := filepath.Join(dir, lockFileName)
	self := os.Getpid()
	for attempt := 0; attempt < 5; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			enc := json.NewEncoder(f)
			werr := enc.Encode(lockInfo{PID: self, Acquired: time.Now().UTC().Format(time.RFC3339)})
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				os.Remove(path)
				return false, werr
			}
			return true, nil
		}
		if !os.IsExist(err) {
			return false, err
		}
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			if os.IsNotExist(rerr) {
				continue // holder released between our O_EXCL failure and the read
			}
			return false, rerr
		}
		var info lockInfo
		if jerr := json.Unmarshal(b, &info); jerr == nil && info.PID == self {
			return false, nil // reentrant: this process already holds the lock
		} else if jerr == nil && pidAlive(info.PID) {
			return false, &LockHeldError{Dir: dir, PID: info.PID}
		}
		// Dead holder (or unparseable lockfile): steal. Remove and loop back
		// to the O_EXCL create, so concurrent stealers race on creation, not
		// on the write.
		if rmerr := os.Remove(path); rmerr != nil && !os.IsNotExist(rmerr) {
			return false, rmerr
		}
	}
	return false, fmt.Errorf("store: could not acquire %s after repeated contention", path)
}

// Close releases the store lock if this handle owns it. Safe to call more
// than once; handles that did not acquire ownership (reentrant opens) leave
// the lock for the owning handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ownsLock {
		return nil
	}
	s.ownsLock = false
	err := os.Remove(filepath.Join(s.dir, lockFileName))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
