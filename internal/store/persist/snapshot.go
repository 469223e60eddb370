package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Snapshot file format:
//
//	[8]  magic "TROPSNP1"
//	[8]  zxid covered by the snapshot (big-endian)
//	[4]  crc32 (IEEE) of payload
//	[4]  payload length
//	[n]  payload (opaque to this package)
//
// Snapshots are written to a temporary file, fsynced, and renamed into
// place, so a crash mid-snapshot leaves the previous snapshot intact.
// LoadSnapshot reads ONLY the newest snapshot and fails loudly when it
// is unreadable: rotation deletes the WAL segments a snapshot covers,
// so recovering from an older snapshot plus the surviving tail would
// silently skip every operation between the two — a state that never
// existed. The older retained snapshot is kept strictly as material
// for manual (operator) recovery.

const (
	snapMagic  = "TROPSNP1"
	snapSuffix = ".snap"
	snapPrefix = "snap-"
	// snapRetain is how many snapshots are kept: the latest, which
	// recovery uses, plus one older file retained only as material for
	// manual recovery should the latest be damaged (recovery never
	// falls back to it automatically — see LoadSnapshot).
	snapRetain = 2
)

func snapName(zxid int64) string {
	return fmt.Sprintf("%s%016x%s", snapPrefix, uint64(zxid), snapSuffix)
}

// Snapshot durably writes a full-state snapshot covering every record
// up to and including zxid, then rotates the WAL: a fresh segment
// becomes active and all prior segments — whose records are all ≤ zxid,
// since the caller sequences Snapshot with appends — are deleted, along
// with all but the last snapRetain snapshots. This is what bounds
// recovery time and disk usage.
//
// A failure before the snapshot file lands is harmless (the WAL still
// holds everything; the caller may retry later). A failure during the
// rotation that follows is fail-stop, like a failed append: the store
// would otherwise be left with no usable active segment.
func (s *Store) Snapshot(zxid int64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failErr != nil {
		return s.failErr
	}
	if err := s.writeSnapshotLocked(zxid, payload); err != nil {
		return err
	}
	s.snapshots.Inc()
	// Rotate: records from zxid+1 on go to a fresh segment.
	if s.active != nil {
		if err := s.active.Close(); err != nil {
			s.active = nil
			return s.fail(err)
		}
		s.active = nil
	}
	if err := s.openSegmentLocked(zxid + 1); err != nil {
		return s.fail(err)
	}
	// Prune failures are non-fatal: leftover segments only hold records
	// the snapshot covers, which replay skips; the next rotation retries
	// their removal.
	return s.pruneLocked(zxid)
}

func (s *Store) writeSnapshotLocked(zxid int64, payload []byte) error {
	tmp, err := os.CreateTemp(s.dir, snapName(zxid)+".*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	hdr := make([]byte, 0, 24)
	hdr = append(hdr, snapMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(zxid))
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(payload)))
	if _, err := tmp.Write(hdr); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(payload); err != nil {
		tmp.Close()
		return err
	}
	if err := s.fsync(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, snapName(zxid))); err != nil {
		return err
	}
	return s.syncDir()
}

// pruneLocked removes WAL segments fully covered by the snapshot at
// zxid (every segment except the just-opened active one) and old
// snapshots beyond the retention count.
func (s *Store) pruneLocked(zxid int64) error {
	segs, err := s.sortedMatches(walPrefix, walSuffix)
	if err != nil {
		return err
	}
	activeName := walName(zxid + 1)
	for _, name := range segs {
		if name != activeName {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return err
			}
		}
	}
	snaps, err := s.sortedMatches(snapPrefix, snapSuffix)
	if err != nil {
		return err
	}
	for len(snaps) > snapRetain {
		if err := os.Remove(filepath.Join(s.dir, snaps[0])); err != nil {
			return err
		}
		snaps = snaps[1:]
	}
	return nil
}

// LoadSnapshot returns the payload and zxid of the newest snapshot, or
// (nil, 0, nil) when the directory holds none. An unreadable newest
// snapshot is an error, never a silent fallback: the WAL segments it
// covered are gone, so no combination of older snapshot + surviving
// tail reconstructs a state that ever existed.
func (s *Store) LoadSnapshot() ([]byte, int64, error) {
	names, err := s.sortedMatches(snapPrefix, snapSuffix)
	if err != nil {
		return nil, 0, err
	}
	if len(names) == 0 {
		return nil, 0, nil
	}
	newest := names[len(names)-1]
	payload, zxid, ok := readSnapshot(filepath.Join(s.dir, newest))
	if !ok {
		return nil, 0, fmt.Errorf(
			"persist: snapshot %s is unreadable; refusing automatic recovery (older files in %s are retained for manual repair)",
			newest, s.dir)
	}
	return payload, zxid, nil
}

func readSnapshot(path string) (payload []byte, zxid int64, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false
	}
	defer f.Close()
	hdr := make([]byte, 24)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, 0, false
	}
	if string(hdr[:8]) != snapMagic {
		return nil, 0, false
	}
	zxid = int64(binary.BigEndian.Uint64(hdr[8:16]))
	crc := binary.BigEndian.Uint32(hdr[16:20])
	n := binary.BigEndian.Uint32(hdr[20:24])
	if n > maxRecordBytes*16 {
		return nil, 0, false
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(f, payload); err != nil {
		return nil, 0, false
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, false
	}
	return payload, zxid, true
}
