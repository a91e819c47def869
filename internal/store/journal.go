package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
)

// This file is the campaign journal. A running campaign's checkpoints are
// records appended to campaigns/<name>.log; the snapshot beside it,
// campaigns/<name>.json, changes only when the campaign is folded (Finish
// or Compact). Each record is one write of
//
//	length  uint32, little-endian: the payload's byte count
//	crc     uint32, little-endian: CRC-32C (Castagnoli) of the payload
//	payload core.Snapshot.EncodeDelta: the snapshot without its history,
//	        plus the error records and iteration stats added since the
//	        journal's previous record, with their base counts
//
// Loading reads the snapshot, if there is one, and applies the records in
// order (core.Snapshot.ApplyDelta skips one the snapshot already holds).
// Replay stops at the first record that is short, fails its checksum, does
// not decode or does not continue the state, and ignores everything after
// it. Records are synced only when one lands syncInterval or more after the
// journal's last sync; the fold's snapshot write is synced. A killed process
// therefore loses no record it finished writing, and a machine crash loses
// at most the records of one interval: iterations a resumed campaign runs
// again, to the same result.

// syncInterval is the longest a journal's records stay unsynced while the
// campaign keeps checkpointing.
const syncInterval = time.Second

// recordHeader is the byte count of a record's length and checksum.
const recordHeader = 8

// castagnoli is the CRC-32C table, built on first use: building it takes
// about a quarter of a millisecond, which every process linking the store
// would otherwise pay at start-up.
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

// fileWrite is the seam every store file write goes through: a journal
// record's single write and each write into WriteAtomic's temp file. Tests
// replace it to fail or tear exactly the nth write.
var fileWrite = func(f *os.File, b []byte) (int, error) { return f.Write(b) }

// journal is what this process knows of one campaign's files. When loaded,
// iters, errors and stats are the iteration count and history lengths the
// snapshot and journal hold together, so the next record's base. An append
// that fails clears loaded: the next one reads the files again and cuts
// any torn tail before it writes.
type journal struct {
	mu                   sync.Mutex
	loaded               bool
	iters, errors, stats int
	synced               time.Time
}

// journalPath is the journal file of a campaign name.
func (s *Store) journalPath(name string) string {
	return filepath.Join(s.dir, "campaigns", name+".log")
}

// journal returns the journal state of name, creating it on first use.
func (s *Store) journal(name string) *journal {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	j := s.journals[name]
	if j == nil {
		j = &journal{}
		s.journals[name] = j
	}
	return j
}

// AppendCampaign checkpoints a running campaign: it appends to name's
// journal the record that takes what the store holds of the campaign to
// snap. A snap no further than that appends nothing. Appends to one
// campaign are serialized; different campaigns append concurrently.
func (s *Store) AppendCampaign(name string, snap *core.Snapshot) error {
	j := s.journal(name)
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.loaded {
		if err := s.openJournal(name, j); err != nil {
			return err
		}
	}
	if snap.Iters <= j.iters {
		return nil
	}
	rec, err := snap.EncodeDelta(j.errors, j.stats)
	if err != nil {
		return err
	}
	now := time.Now()
	durable := now.Sub(j.synced) >= syncInterval
	if err := appendRecord(s.journalPath(name), rec, durable); err != nil {
		j.loaded = false
		return err
	}
	if durable {
		j.synced = now
	}
	j.iters, j.errors, j.stats = snap.Iters, len(snap.Errors), len(snap.Stats)
	return nil
}

// openJournal loads j from name's files and truncates the journal to its
// valid prefix, so the next record lands where replay will read it. The
// sync interval starts here.
func (s *Store) openJournal(name string, j *journal) error {
	c, err := s.loadCampaign(name)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if c.size > c.valid {
		if err := os.Truncate(s.journalPath(name), c.valid); err != nil {
			return err
		}
	}
	j.loaded, j.synced = true, time.Now()
	j.iters, j.errors, j.stats = c.snap.Iters, len(c.snap.Errors), len(c.snap.Stats)
	return nil
}

// appendRecord frames payload and appends it to the journal at path with
// one open, write and close, syncing before the close when durable is set.
func appendRecord(path string, payload []byte, durable bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	buf := make([]byte, recordHeader, recordHeader+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, castagnoli()))
	buf = append(buf, payload...)
	_, err = fileWrite(f, buf)
	if err == nil && durable {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// loaded is a campaign as its files hold it: the snapshot with the
// journal's valid records applied, the iterations the snapshot file held by
// itself, and the journal's valid prefix and total size in bytes.
type loaded struct {
	snap        *core.Snapshot
	folded      int
	valid, size int64
}

// loadCampaign reads campaign name's snapshot, when there is one, and
// replays its journal over it. With neither file holding a campaign, the
// error wraps fs.ErrNotExist, and c still holds an empty snapshot and the
// journal's sizes.
func (s *Store) loadCampaign(name string) (loaded, error) {
	var c loaded
	f, err := os.Open(s.campaignPath(name))
	switch {
	case err == nil:
		c.snap, err = core.LoadSnapshot(f)
		f.Close()
		if err != nil {
			return c, fmt.Errorf("store: campaign %s: %w", name, err)
		}
		c.folded = c.snap.Iters
	case !errors.Is(err, fs.ErrNotExist):
		return c, err
	}
	b, err := os.ReadFile(s.journalPath(name))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return c, err
	}
	c.size = int64(len(b))
	replayed := c.snap
	if replayed == nil {
		replayed = &core.Snapshot{}
	}
	for off := 0; len(b)-off >= recordHeader; {
		n := int(binary.LittleEndian.Uint32(b[off:]))
		end := off + recordHeader + n
		if n > len(b)-off-recordHeader {
			break
		}
		payload := b[off+recordHeader : end]
		if crc32.Checksum(payload, castagnoli()) != binary.LittleEndian.Uint32(b[off+4:]) ||
			replayed.ApplyDelta(payload) != nil {
			break
		}
		off = end
		c.valid = int64(off)
	}
	empty := c.snap == nil && replayed.Iters == 0
	c.snap = replayed
	if empty {
		return c, fmt.Errorf("store: campaign %s: %w", name, fs.ErrNotExist)
	}
	return c, nil
}

// foldLocked writes snap as name's snapshot and removes name's journal,
// whose records snap supersedes; j.mu is held. A crash between the two
// steps leaves a journal whose records the snapshot already holds, so the
// campaign still loads once.
func (s *Store) foldLocked(name string, j *journal, snap *core.Snapshot) error {
	j.loaded = false
	if err := WriteAtomic(s.campaignPath(name), snap.Save); err != nil {
		return err
	}
	j.loaded, j.synced = true, time.Now()
	j.iters, j.errors, j.stats = snap.Iters, len(snap.Errors), len(snap.Stats)
	if err := os.Remove(s.journalPath(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// Unfolded reports how many of campaign name's iterations only its journal
// holds: 0 once Finish or Compact has folded it.
func (s *Store) Unfolded(name string) (int, error) {
	c, err := s.loadCampaign(name)
	if err != nil {
		return 0, err
	}
	return c.snap.Iters - c.folded, nil
}
