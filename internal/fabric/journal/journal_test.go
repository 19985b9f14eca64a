package journal

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faults"
)

func openClean(t *testing.T, dir string) (*Journal, Replay) {
	t.Helper()
	j, rep, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j, rep
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, rep := openClean(t, dir)
	if len(rep.Records) != 0 || rep.TruncatedBytes != 0 {
		t.Fatalf("fresh journal replayed %+v", rep)
	}
	want := []Record{
		{Type: TypeEpoch, Epoch: 1},
		{Type: TypeJobAccepted, Job: "f1", Tenant: "acme", Experiment: "fig6",
			Params: json.RawMessage(`{"scale":0.25}`), Key: "k-render"},
		{Type: TypePointAssigned, Job: "f1", Index: 0, Key: "k-p0", Epoch: 1},
		{Type: TypePointCompleted, Job: "f1", Index: 0, Key: "k-p0"},
		{Type: TypeJobMerged, Job: "f1", Key: "k-render"},
	}
	if err := j.Append(want[:2]...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Append(want[2:]...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, rep2 := openClean(t, dir)
	defer j2.Close()
	if rep2.TruncatedBytes != 0 {
		t.Fatalf("clean log reported %d torn bytes", rep2.TruncatedBytes)
	}
	if len(rep2.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rep2.Records), len(want))
	}
	for i, rec := range rep2.Records {
		got, _ := json.Marshal(rec)
		exp, _ := json.Marshal(want[i])
		if string(got) != string(exp) {
			t.Errorf("record %d: got %s want %s", i, got, exp)
		}
	}
}

// TestTornTailTruncation hand-tears the log at every possible byte
// boundary inside the last frame and asserts replay always recovers the
// prefix and repairs the file.
func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	j, _ := openClean(t, dir)
	recs := []Record{
		{Type: TypeEpoch, Epoch: 1},
		{Type: TypePointAssigned, Job: "f1", Index: 3, Key: "abc", Epoch: 1},
	}
	if err := j.Append(recs...); err != nil {
		t.Fatalf("Append: %v", err)
	}
	goodSize := j.Size()
	if err := j.Append(Record{Type: TypePointCompleted, Job: "f1", Index: 3, Key: "abc"}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	fullSize := j.Size()
	j.Close()

	path := Path(dir)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := goodSize + 1; cut < fullSize; cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rep, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if len(rep.Records) != len(recs) {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, len(rep.Records), len(recs))
		}
		if rep.TruncatedBytes != cut-goodSize {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, rep.TruncatedBytes, cut-goodSize)
		}
		// The repair must leave a clean log: appendable and re-replayable.
		if err := j2.Append(Record{Type: TypePointRetried, Job: "f1", Index: 3}); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		j2.Close()
		again, _, err := Read(path)
		if err != nil {
			t.Fatalf("cut %d: reread: %v", cut, err)
		}
		if len(again) != len(recs)+1 {
			t.Fatalf("cut %d: after repair+append got %d records, want %d", cut, len(again), len(recs)+1)
		}
	}
}

// TestCorruptFrameStopsReplay flips a payload byte mid-log: the frame's
// CRC no longer holds, so replay must stop at the previous record and
// truncate — checksummed frames, not just length-prefixed ones.
func TestCorruptFrameStopsReplay(t *testing.T) {
	dir := t.TempDir()
	j, _ := openClean(t, dir)
	if err := j.Append(Record{Type: TypeEpoch, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	prefix := j.Size()
	if err := j.Append(Record{Type: TypeJobMerged, Job: "f9", Key: "zzz"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	path := Path(dir)
	raw, _ := os.ReadFile(path)
	raw[prefix+8+2] ^= 0xff // a byte inside the second frame's payload
	os.WriteFile(path, raw, 0o644)

	_, rep, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(rep.Records) != 1 || rep.Records[0].Type != TypeEpoch {
		t.Fatalf("replay past a corrupt frame: %+v", rep.Records)
	}
	if rep.TruncatedBytes == 0 {
		t.Fatal("corrupt frame not truncated")
	}
}

func TestRefusesForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, nil); err == nil {
		t.Fatal("opened a non-journal file")
	}
}

func TestRewriteCompacts(t *testing.T) {
	dir := t.TempDir()
	j, _ := openClean(t, dir)
	for i := 0; i < 10; i++ {
		if err := j.Append(Record{Type: TypePointAssigned, Job: "f1", Index: i, Epoch: 1}); err != nil {
			t.Fatal(err)
		}
	}
	keep := []Record{
		{Type: TypeEpoch, Epoch: 2},
		{Type: TypeJobAccepted, Job: "f2", Experiment: "fig2", Key: "k2"},
	}
	if err := j.Rewrite(keep); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	// The compacted log must stay appendable (fresh fd, lock carried over).
	if err := j.Append(Record{Type: TypePointAssigned, Job: "f2", Index: 0, Epoch: 2}); err != nil {
		t.Fatalf("append after Rewrite: %v", err)
	}
	j.Close()
	recs, torn, err := Read(Path(dir))
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("torn bytes after compaction: %d", torn)
	}
	if len(recs) != 3 || recs[0].Epoch != 2 || recs[1].Job != "f2" || recs[2].Index != 0 {
		t.Fatalf("compacted log replayed %+v", recs)
	}
}

// TestAppendFaultTearsTail arms the fabric.journal site: the poisoned
// Append must report failure, leave a half-written batch, and the next
// Open must truncate it back to the acknowledged prefix.
func TestAppendFaultTearsTail(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New(1)
	inj.Arm(SiteAppend, faults.Trigger{OnCall: 2})
	j, _, err := Open(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeEpoch, Epoch: 1}); err != nil {
		t.Fatalf("first append: %v", err)
	}
	// Asymmetric frames so half the batch's bytes land mid-frame: the
	// second record's key pushes the cut point inside it.
	err = j.Append(
		Record{Type: TypePointAssigned, Job: "f1", Index: 0, Epoch: 1},
		Record{Type: TypePointAssigned, Job: "f1", Index: 1, Epoch: 1,
			Key: "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"},
	)
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("poisoned append returned %v, want injected fault", err)
	}
	j.Kill() // crash without sync, as the fault site intends

	j2, rep, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("recovery Open: %v", err)
	}
	defer j2.Close()
	// The acknowledged prefix must survive; the unacknowledged batch
	// must not survive whole (half its bytes were never written). A
	// leading intact frame of the torn batch may legally be recovered —
	// the contract is about acknowledged records only.
	if len(rep.Records) == 0 || rep.Records[0].Type != TypeEpoch {
		t.Fatalf("acknowledged epoch record lost: %+v", rep.Records)
	}
	if len(rep.Records) >= 3 {
		t.Fatalf("entire poisoned batch recovered: %+v", rep.Records)
	}
	if rep.TruncatedBytes == 0 {
		t.Fatal("half-written batch left no torn tail to truncate")
	}
}

func TestLockFencesSecondIncarnation(t *testing.T) {
	dir := t.TempDir()
	j, _ := openClean(t, dir)
	if _, _, err := Open(dir, nil); err == nil {
		t.Fatal("second Open on a held journal succeeded")
	}
	j.Close()
	j2, _, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open after release: %v", err)
	}
	j2.Close()
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	j, _ := openClean(t, dir)
	j.Close()
	if err := j.Append(Record{Type: TypeEpoch, Epoch: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

// TestTornMagicRepaired pins recovery from a torn first write: a log
// holding only a strict prefix of the magic opens empty, reports the torn
// bytes, and takes appends like a fresh log.
func TestTornMagicRepaired(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(Path(dir), []byte(Magic[:7]), 0o644); err != nil {
		t.Fatal(err)
	}
	j, rep, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open over a torn magic: %v", err)
	}
	if len(rep.Records) != 0 || rep.TruncatedBytes != 7 {
		t.Fatalf("replayed %+v, want no records and 7 torn bytes", rep)
	}
	if err := j.Append(Record{Type: TypeEpoch, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	recs, _, err := Read(Path(dir))
	if err != nil || len(recs) != 1 {
		t.Fatalf("after repair and append: %d records, %v", len(recs), err)
	}
	if err := os.WriteFile(Path(dir), []byte("cascade-jour"+"X"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, nil); err == nil {
		t.Fatal("Open accepted a short file that is not a prefix of the magic")
	}
}

// FuzzJournalOpen cuts a valid journal short and flips up to three bits
// in what is left, then opens it. Open must never panic; a damaged magic
// must be refused; otherwise the replay must be exactly the frames before
// the first cut or flipped one, the rest must count as truncated, and an
// append after the repair must survive a reopen.
func FuzzJournalOpen(f *testing.F) {
	want := []Record{
		{Type: TypeEpoch, Epoch: 1},
		{Type: TypeJobAccepted, Job: "f1", Experiment: "fig6", Params: json.RawMessage(`{"scale":0.05}`), Key: "k-render"},
		{Type: TypePointAssigned, Job: "f1", Index: 0, Key: "k-p0", Epoch: 1},
		{Type: TypePointCompleted, Job: "f1", Index: 0, Key: "k-p0"},
	}
	src := f.TempDir()
	j, _, err := Open(src, nil)
	if err != nil {
		f.Fatal(err)
	}
	ends := make([]int64, len(want)) // ends[i]: offset just past frame i
	for i, rec := range want {
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
		ends[i] = j.Size()
	}
	j.Close()
	full, err := os.ReadFile(Path(src))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint16(len(full)), []byte(nil))
	f.Add(uint16(0), []byte(nil))
	f.Add(uint16(7), []byte(nil))
	f.Add(uint16(len(Magic)), []byte(nil))
	f.Add(uint16(ends[1]+3), []byte(nil))
	f.Add(uint16(len(full)), []byte{0, byte(8 * (ends[1] + 2))})
	f.Add(uint16(len(full)), []byte{0, 3})

	f.Fuzz(func(t *testing.T, cut uint16, flips []byte) {
		data := append([]byte(nil), full[:int(cut)%(len(full)+1)]...)
		n := int64(len(data))
		for k := 0; k+1 < len(flips) && k < 6 && n > 0; k += 2 {
			bit := (int64(flips[k])<<8 | int64(flips[k+1])) % (8 * n)
			data[bit/8] ^= 1 << (bit % 8)
		}
		var flipped []int64 // offsets of the bytes the flips changed
		for i := range data {
			if data[i] != full[i] {
				flipped = append(flipped, int64(i))
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(Path(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, rep, err := Open(dir, nil)
		head := min(n, int64(len(Magic)))
		if string(data[:head]) != Magic[:head] {
			if err == nil {
				j.Close()
				t.Fatal("Open accepted a damaged magic")
			}
			return
		}
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer j.Close()

		// The intact frames: every frame wholly inside the cut and
		// clear of every flip, up to the first that is not.
		intact, good := 0, int64(len(Magic))
		for i, end := range ends {
			start := int64(len(Magic))
			if i > 0 {
				start = ends[i-1]
			}
			hit := end > n
			for _, b := range flipped {
				hit = hit || (b >= start && b < end)
			}
			if hit {
				break
			}
			intact, good = i+1, end
		}
		wantTorn := n - good
		if n < int64(len(Magic)) {
			wantTorn = n // a torn magic is rewritten whole
		}
		assertRecords(t, rep.Records, want[:intact])
		if rep.TruncatedBytes != wantTorn {
			t.Fatalf("truncated %d bytes, want %d", rep.TruncatedBytes, wantTorn)
		}

		extra := Record{Type: TypePointRetried, Job: "f1", Index: 0}
		if err := j.Append(extra); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		j.Close()
		j2, rep2, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer j2.Close()
		if rep2.TruncatedBytes != 0 {
			t.Fatalf("reopen after repair truncated %d bytes", rep2.TruncatedBytes)
		}
		assertRecords(t, rep2.Records, append(append([]Record(nil), want[:intact]...), extra))
	})
}

// assertRecords compares replayed records with the expected ones by their
// encoding.
func assertRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if string(g) != string(w) {
			t.Fatalf("record %d: got %s want %s", i, g, w)
		}
	}
}
