package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Segment file format:
//
//	[8]  magic "TROPWAL1"
//	then zero or more records:
//	[4]  crc32 (IEEE) of body
//	[4]  body length
//	[n]  body = [8] zxid (big-endian) + payload
//
// A record is readable iff its frame is complete and the CRC matches.
// Recovery treats the first unreadable record as the end of the log:
// a torn final record (crash mid-write) is silently dropped, and
// anything after a corrupt record is suspect and ignored.

const (
	walMagic  = "TROPWAL1"
	walSuffix = ".log"
	walPrefix = "wal-"
	// maxRecordBytes bounds a single record so a corrupt length field
	// cannot trigger a huge allocation during recovery.
	maxRecordBytes = 1 << 26 // 64 MiB
)

// ErrNotAppending is returned by Append before StartAppending.
var ErrNotAppending = errors.New("persist: no active WAL segment (call StartAppending)")

func walName(firstZxid int64) string {
	return fmt.Sprintf("%s%016x%s", walPrefix, uint64(firstZxid), walSuffix)
}

// StartAppending opens a fresh active segment for records from nextZxid
// on. Recovery always rotates to a new segment rather than appending to
// the last one, so a torn tail from the previous run can never sit in
// front of new records.
func (s *Store) StartAppending(nextZxid int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("persist: store closed")
	}
	if s.failErr != nil {
		return s.failErr
	}
	if s.active != nil {
		if err := s.active.Close(); err != nil {
			return err
		}
		s.active = nil
	}
	return s.openSegmentLocked(nextZxid)
}

func (s *Store) openSegmentLocked(firstZxid int64) error {
	path := filepath.Join(s.dir, walName(firstZxid))
	// Always a FRESH segment: O_TRUNC discards any same-named file left
	// by a previous incarnation. A name collision can only happen when
	// that old segment contributed no records to replay (e.g. its first
	// frame was torn by a crash) — had it contributed any, the next zxid
	// would be past its name. Appending behind leftover torn bytes would
	// strand every new record where replay never reaches it.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return err
	}
	s.bytes.Add(int64(len(walMagic)))
	if s.policy == SyncAlways {
		if err := s.fsync(f); err != nil {
			f.Close()
			return err
		}
		if err := s.syncDir(); err != nil {
			f.Close()
			return err
		}
	}
	s.active = f
	return nil
}

// Append frames payload under zxid and writes it to the active segment,
// fsyncing per policy. It returns only after the record is handed to
// the OS (SyncNone) or on stable storage (SyncAlways) — the caller
// applies the operation to its in-memory state strictly afterwards
// (log-before-apply).
//
// A failed append is fail-stop: the frame may be partially on disk, so
// appending anything after it would put valid records behind a torn one
// where replay never reaches them. The store refuses all further
// appends with the original error; the failing record's own outcome is
// indeterminate (a fully written frame whose fsync failed can still
// surface after recovery), which is why the caller must also never
// reuse its zxid.
func (s *Store) Append(zxid int64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failErr != nil {
		return s.failErr
	}
	if s.active == nil {
		return ErrNotAppending
	}
	frame := appendFrame(make([]byte, 0, 16+len(payload)), zxid, payload)
	if _, err := s.active.Write(frame); err != nil {
		return s.fail(fmt.Errorf("persist: wal append: %w", err))
	}
	s.appends.Inc()
	s.bytes.Add(int64(len(frame)))
	if s.policy == SyncAlways {
		if err := s.fsync(s.active); err != nil {
			return s.fail(fmt.Errorf("persist: wal fsync: %w", err))
		}
	}
	return nil
}

// AppendNoSync frames payload under zxid and writes it to the active
// segment WITHOUT fsyncing, regardless of policy. It is the group-commit
// half of Append: the caller writes a run of records and then makes the
// whole run durable with one SyncGroup call, amortizing the fsync that
// dominates SyncAlways throughput. Failure semantics are identical to
// Append (fail-stop: a torn frame may sit in front of later records).
func (s *Store) AppendNoSync(zxid int64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failErr != nil {
		return s.failErr
	}
	if s.active == nil {
		return ErrNotAppending
	}
	frame := appendFrame(make([]byte, 0, 16+len(payload)), zxid, payload)
	if _, err := s.active.Write(frame); err != nil {
		return s.fail(fmt.Errorf("persist: wal append: %w", err))
	}
	s.appends.Inc()
	s.bytes.Add(int64(len(frame)))
	return nil
}

// SyncGroup completes a run of AppendNoSync records: under SyncAlways it
// fsyncs the active segment once for the whole run; under SyncNone it is
// a no-op (the OS flushes on its own schedule, as for Append). A failed
// sync is fail-stop — the run's durability is indeterminate and nothing
// may be appended behind it.
func (s *Store) SyncGroup() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failErr != nil {
		return s.failErr
	}
	if s.policy != SyncAlways || s.active == nil {
		return nil
	}
	if err := s.fsync(s.active); err != nil {
		return s.fail(fmt.Errorf("persist: wal group fsync: %w", err))
	}
	return nil
}

func appendFrame(b []byte, zxid int64, payload []byte) []byte {
	body := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint64(body, uint64(zxid))
	copy(body[8:], payload)
	b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
	b = binary.BigEndian.AppendUint32(b, uint32(len(body)))
	return append(b, body...)
}

// Replay streams every decodable record with zxid > afterZxid, in log
// order, to apply. It stops cleanly at the first torn or corrupt record
// and returns the zxid of the last record delivered (afterZxid when
// none were). An error from apply aborts the replay.
func (s *Store) Replay(afterZxid int64, apply func(zxid int64, payload []byte) error) (int64, error) {
	names, err := s.sortedMatches(walPrefix, walSuffix)
	if err != nil {
		return afterZxid, err
	}
	last := afterZxid
	for _, name := range names {
		done, err := s.replaySegment(filepath.Join(s.dir, name), afterZxid, &last, apply)
		if err != nil {
			return last, err
		}
		if done {
			// The segment ended at a torn or corrupt record; everything
			// after that point (including later segments) is suspect.
			break
		}
	}
	return last, nil
}

// replaySegment reads one segment. It returns done=true when the
// segment terminated at an unreadable record, meaning replay must not
// continue into later segments.
func (s *Store) replaySegment(path string, afterZxid int64, last *int64, apply func(int64, []byte) error) (done bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(f, magic); err != nil || string(magic) != walMagic {
		// Not a segment this version wrote (or truncated before the
		// header finished): treat as end of log.
		return true, nil
	}
	hdr := make([]byte, 8)
	for {
		if _, err := io.ReadFull(f, hdr); err != nil {
			// Clean end of segment (EOF) or torn frame header.
			return !errors.Is(err, io.EOF), nil
		}
		crc := binary.BigEndian.Uint32(hdr[:4])
		n := binary.BigEndian.Uint32(hdr[4:])
		if n < 8 || n > maxRecordBytes {
			return true, nil // corrupt length
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(f, body); err != nil {
			return true, nil // torn record
		}
		if crc32.ChecksumIEEE(body) != crc {
			return true, nil // corrupt record
		}
		zxid := int64(binary.BigEndian.Uint64(body[:8]))
		if zxid <= afterZxid {
			continue // already covered by the snapshot
		}
		if err := apply(zxid, body[8:]); err != nil {
			return false, err
		}
		*last = zxid
	}
}
