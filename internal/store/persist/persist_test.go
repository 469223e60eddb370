package persist

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// replayAll collects every decodable record after afterZxid.
func replayAll(t *testing.T, s *Store, afterZxid int64) (zxids []int64, payloads []string) {
	t.Helper()
	last, err := s.Replay(afterZxid, func(z int64, p []byte) error {
		zxids = append(zxids, z)
		payloads = append(payloads, string(p))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(zxids) > 0 && last != zxids[len(zxids)-1] {
		t.Fatalf("Replay returned last=%d, want %d", last, zxids[len(zxids)-1])
	}
	return zxids, payloads
}

func appendN(t *testing.T, s *Store, from, n int64) {
	t.Helper()
	for z := from; z < from+n; z++ {
		if err := s.Append(z, []byte(fmt.Sprintf("op-%d", z))); err != nil {
			t.Fatal(err)
		}
	}
}

// newestWAL returns the path of the newest log segment.
func newestWAL(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, walPrefix+"*"+walSuffix))
	if err != nil || len(names) == 0 {
		t.Fatalf("no wal segments in %s (err=%v)", dir, err)
	}
	return names[len(names)-1]
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.Append(1, []byte("x")); err != ErrNotAppending {
		t.Fatalf("Append before StartAppending: err=%v, want ErrNotAppending", err)
	}
	if err := s.StartAppending(1); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 100)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	zxids, payloads := replayAll(t, s2, 0)
	if len(zxids) != 100 {
		t.Fatalf("replayed %d records, want 100", len(zxids))
	}
	for i, z := range zxids {
		if z != int64(i+1) || payloads[i] != fmt.Sprintf("op-%d", z) {
			t.Fatalf("record %d: zxid=%d payload=%q", i, z, payloads[i])
		}
	}
	// Replay with afterZxid skips the covered prefix.
	zxids, _ = replayAll(t, s2, 90)
	if len(zxids) != 10 || zxids[0] != 91 {
		t.Fatalf("tail replay: got %v", zxids)
	}
}

func TestTornFinalRecordIsDropped(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.StartAppending(1); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: chop a few bytes off the segment, as if the
	// process died mid-write.
	seg := newestWAL(t, dir)
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	zxids, _ := replayAll(t, s2, 0)
	if len(zxids) != 9 || zxids[len(zxids)-1] != 9 {
		t.Fatalf("after torn tail: replayed %v, want 1..9", zxids)
	}
}

func TestCorruptCRCEndsReplay(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.StartAppending(1); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the segment: records from the
	// damaged one on are all suspect and must be ignored.
	seg := newestWAL(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	zxids, _ := replayAll(t, s2, 0)
	if len(zxids) >= 10 {
		t.Fatalf("corrupt record not detected: replayed %d records", len(zxids))
	}
	for i, z := range zxids { // the undamaged prefix must be intact
		if z != int64(i+1) {
			t.Fatalf("prefix damaged: %v", zxids)
		}
	}
}

func TestCorruptLengthFieldEndsReplay(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.StartAppending(1); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Overwrite the last record's length with an absurd value; replay
	// must stop rather than attempt a giant allocation.
	seg := newestWAL(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	rec := len("op-1") + 8 + 8 // body + frame
	off := len(data) - rec + 4 // length field of the last record
	binary.BigEndian.PutUint32(data[off:], 1<<30)
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	zxids, _ := replayAll(t, s2, 0)
	if len(zxids) != 2 {
		t.Fatalf("replayed %v, want 1..2", zxids)
	}
}

func TestTornHeadSegmentIsNotReused(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.StartAppending(1); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a previous incarnation that rotated to segment wal-2 and
	// crashed mid-first-append: the file exists but holds only a torn
	// frame. StartAppending(2) resolves to the same name and must NOT
	// append behind the torn bytes (replay would stop at them and lose
	// every new record).
	torn := filepath.Join(dir, walName(2))
	if err := os.WriteFile(torn, append([]byte(walMagic), 0xDE, 0xAD, 0xBE), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	last, err := s2.Replay(0, func(int64, []byte) error { return nil })
	if err != nil || last != 1 {
		t.Fatalf("replay over torn-head segment: last=%d err=%v", last, err)
	}
	if err := s2.StartAppending(2); err != nil {
		t.Fatal(err)
	}
	if err := s2.Append(2, []byte("op-2")); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3 := openStore(t, dir)
	zxids, _ := replayAll(t, s3, 0)
	if len(zxids) != 2 || zxids[1] != 2 {
		t.Fatalf("record appended after torn head was lost: replayed %v, want [1 2]", zxids)
	}
}

func TestSnapshotRotatesAndPrunes(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.StartAppending(1); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 50)
	if err := s.Snapshot(50, []byte("state@50")); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 51, 25)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	payload, zxid, err := s2.LoadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "state@50" || zxid != 50 {
		t.Fatalf("snapshot = %q@%d, want state@50@50", payload, zxid)
	}
	zxids, _ := replayAll(t, s2, zxid)
	if len(zxids) != 25 || zxids[0] != 51 || zxids[24] != 75 {
		t.Fatalf("tail replay after snapshot: %v", zxids)
	}
	// The pre-snapshot segment must be gone.
	segs, _ := filepath.Glob(filepath.Join(dir, walPrefix+"*"+walSuffix))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment after rotation, have %v", segs)
	}

	stats := s.Stats()
	if stats.Snapshots != 1 || stats.WALAppends != 75 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestSnapshotRetention(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.StartAppending(1); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 5; i++ {
		if err := s.Append(i, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := s.Snapshot(i, fmt.Appendf(nil, "state@%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if len(snaps) != snapRetain {
		t.Fatalf("retained %d snapshots, want %d: %v", len(snaps), snapRetain, snaps)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptNewestSnapshotRefusesRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir)
	if err := s.StartAppending(1); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 2)
	if err := s.Snapshot(1, []byte("older")); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(2, []byte("newer")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest snapshot's payload. Rotation already deleted
	// the WAL segments it covered, so the retained older snapshot plus
	// the surviving tail can NOT reconstruct a real state — recovery
	// must refuse, not silently serve a gap.
	newest := filepath.Join(dir, snapName(2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir)
	if _, _, err := s2.LoadSnapshot(); err == nil {
		t.Fatal("LoadSnapshot silently fell back past a corrupt newest snapshot")
	}
}

func TestAppendFailureIsFailStop(t *testing.T) {
	s := openStore(t, t.TempDir())
	if err := s.StartAppending(1); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 3)
	// Force an I/O error on the next append by closing the segment file
	// out from under the store.
	s.active.Close()
	err := s.Append(4, []byte("doomed"))
	if err == nil {
		t.Fatal("append to a closed segment succeeded")
	}
	// Every later append must fail with the original error — appending
	// past a possibly-torn frame would strand valid records behind it.
	if err2 := s.Append(5, []byte("after")); err2 == nil || err2.Error() != err.Error() {
		t.Fatalf("append after failure: %v, want sticky %v", err2, err)
	}
	if err2 := s.StartAppending(6); err2 == nil {
		t.Fatal("StartAppending after failure succeeded")
	}
	if err2 := s.Snapshot(5, []byte("x")); err2 == nil {
		t.Fatal("Snapshot after failure succeeded")
	}
}

func TestEmptyDirRecovers(t *testing.T) {
	s := openStore(t, t.TempDir())
	payload, zxid, err := s.LoadSnapshot()
	if err != nil || payload != nil || zxid != 0 {
		t.Fatalf("LoadSnapshot on empty dir = %q,%d,%v", payload, zxid, err)
	}
	zxids, _ := replayAll(t, s, 0)
	if len(zxids) != 0 {
		t.Fatalf("replayed %v from empty dir", zxids)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
		ok   bool
	}{
		{"always", SyncAlways, true},
		{"ALWAYS", SyncAlways, true},
		{"none", SyncNone, true},
		{"sometimes", SyncAlways, false},
		{"", SyncAlways, false},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if SyncAlways.String() != "always" || SyncNone.String() != "none" {
		t.Errorf("String() round-trip broken")
	}
}

func TestSyncAlwaysCountsFsyncs(t *testing.T) {
	s, err := Open(t.TempDir(), SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StartAppending(1); err != nil {
		t.Fatal(err)
	}
	appendN(t, s, 1, 8)
	if got := s.Stats().Fsyncs; got < 8 {
		t.Fatalf("Fsyncs = %d, want ≥ 8 under SyncAlways", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFsyncNanosCoversEveryFsync checks that each kind of fsync the
// store issues — per-append under SyncAlways, the group sync closing an
// AppendNoSync run, and the shutdown Sync — adds to FsyncNanos as well
// as to Fsyncs.
func TestFsyncNanosCoversEveryFsync(t *testing.T) {
	s, err := Open(t.TempDir(), SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.StartAppending(1); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	steps := []struct {
		name string
		run  func() error
	}{
		{"append", func() error { return s.Append(1, []byte("a")) }},
		{"group", func() error {
			if err := s.AppendNoSync(2, []byte("b")); err != nil {
				return err
			}
			return s.SyncGroup()
		}},
		{"sync", s.Sync},
	}
	for _, step := range steps {
		before := s.Stats()
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		after := s.Stats()
		if after.Fsyncs <= before.Fsyncs {
			t.Errorf("%s: Fsyncs %d -> %d, want growth", step.name, before.Fsyncs, after.Fsyncs)
		}
		if after.FsyncNanos <= before.FsyncNanos {
			t.Errorf("%s: FsyncNanos %d -> %d, want growth", step.name, before.FsyncNanos, after.FsyncNanos)
		}
	}
}
