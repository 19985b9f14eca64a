// Package journal is the coordinator's write-ahead log: an append-only
// record of every job and point state transition, durable enough that a
// coordinator killed mid-sweep can restart, replay the log, and resume
// exactly the work that was genuinely unfinished.
//
// Format (wal.log inside the journal directory):
//
//	magic   "cascade-journal/v1\n"
//	frame*  4-byte big-endian payload length
//	        4-byte big-endian CRC32 (IEEE) of the payload
//	        payload: one Record as compact JSON
//
// Appends are batched: one Append call writes all its frames and issues
// one fsync, so a record returned from Append survives a crash. A crash
// mid-write leaves a torn tail — a frame whose length, checksum, or JSON
// doesn't hold — which Open truncates back to the last intact frame
// (the write-ahead contract: an unacknowledged record may be lost, an
// acknowledged one may not).
//
// Open also takes an exclusive flock on the log, so two coordinator
// incarnations can never interleave writes: a partitioned predecessor
// that still holds the file blocks its successor from starting at all,
// and a crashed one releases the lock with its process.
package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faults"
)

// Magic is the journal file header. A file that exists but doesn't
// start with it belongs to something else; Open refuses to touch it.
const Magic = "cascade-journal/v1\n"

// SiteAppend is the journal's fault-injection site: armed, an Append
// writes only half of its batch (a real torn tail, not a simulated
// one) and reports failure — the crash-mid-write case the replay
// truncation exists for.
const SiteAppend = "fabric.journal"

// logName is the journal file within its directory.
const logName = "wal.log"

// maxFrame bounds one record's payload. A length prefix beyond it is
// treated as a torn tail rather than an allocation request.
const maxFrame = 1 << 20

// Record types, in the order a job's life emits them.
const (
	// TypeEpoch opens a coordinator incarnation. Every journal begins
	// with one; each recovery appends the next.
	TypeEpoch = "epoch"
	// TypeJobAccepted admits a job that missed the result cache and is
	// about to run. Cache-answered jobs never reach the journal: they
	// hold no state worth recovering.
	TypeJobAccepted = "job_accepted"
	// TypePointAssigned leases one point to a worker. Epoch stamps the
	// incarnation that issued the lease, so a recovered coordinator can
	// fence assignments its predecessor left in flight.
	TypePointAssigned = "point_assigned"
	// TypePointCompleted records a point result landing in the
	// content-addressed index under Key.
	TypePointCompleted = "point_completed"
	// TypePointRetried closes a lease that died (worker death, load
	// shed, fenced predecessor assignment) and was reissued.
	TypePointRetried = "point_retried"
	// TypePointFailed closes a lease terminally (experiment error).
	TypePointFailed = "point_failed"
	// TypeJobMerged finishes a job: points merged, result cached under
	// Key. Compaction drops the whole job once this lands.
	TypeJobMerged = "job_merged"
	// TypeJobFailed finishes a job terminally, carrying the typed code
	// and the repro bundle attached to the failure.
	TypeJobFailed = "job_failed"
)

// Record is one journal entry. Every type uses Type plus the subset of
// fields its grammar names (see the Type constants); the rest stay at
// their zero values and are omitted from the wire.
type Record struct {
	Type   string `json:"type"`
	Epoch  uint64 `json:"epoch,omitempty"`
	Job    string `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`

	// Job admission (job_accepted).
	Experiment string          `json:"experiment,omitempty"`
	Params     json.RawMessage `json:"params,omitempty"`

	// Content addresses: the point key on point records, the render key
	// on job_accepted/job_merged.
	Key string `json:"key,omitempty"`

	// Point index within the job's decomposition. Always serialized:
	// index 0 is a real point.
	Index int `json:"index"`

	// Failure details (point_failed, job_failed).
	Error string          `json:"error,omitempty"`
	Code  string          `json:"code,omitempty"`
	Repro json.RawMessage `json:"repro,omitempty"`
}

// ErrClosed fails appends after Close or Kill.
var ErrClosed = errors.New("journal closed")

// Journal is an open write-ahead log. Appends are serialized
// internally; one Journal is safe for concurrent use.
type Journal struct {
	dir  string
	inj  *faults.Injector
	mu   sync.Mutex
	f    *os.File
	size int64 // bytes durably framed (excludes any torn half-write)
}

// Replay is what Open recovered from an existing log.
type Replay struct {
	// Records, in append order, up to the last intact frame.
	Records []Record
	// TruncatedBytes is how much torn tail Open dropped (0 = clean).
	TruncatedBytes int64
}

// Open opens (or creates) the journal under dir, replays every intact
// record, truncates any torn tail, and locks the log against other
// incarnations. The injector arms SiteAppend; nil runs clean.
func Open(dir string, inj *faults.Injector) (*Journal, Replay, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Replay{}, fmt.Errorf("journal: %w", err)
	}
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Replay{}, fmt.Errorf("journal: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, Replay{}, fmt.Errorf("journal: %s held by another coordinator: %w", path, err)
	}
	j := &Journal{dir: dir, inj: inj, f: f}
	rep, err := j.replayAndRepair()
	if err != nil {
		f.Close()
		return nil, Replay{}, err
	}
	return j, rep, nil
}

// replayAndRepair scans the log, returns every intact record, and
// truncates the file back to the last intact frame. A fresh (empty)
// file, or one holding only part of the magic — the first write, torn —
// gets its magic written and synced; the torn part counts as truncated.
func (j *Journal) replayAndRepair() (Replay, error) {
	info, err := j.f.Stat()
	if err != nil {
		return Replay{}, fmt.Errorf("journal: %w", err)
	}
	if info.Size() < int64(len(Magic)) {
		head := make([]byte, info.Size())
		if _, err := j.f.ReadAt(head, 0); err != nil {
			return Replay{}, fmt.Errorf("journal: %w", err)
		}
		if string(head) != Magic[:len(head)] {
			return Replay{}, fmt.Errorf("journal: not a cascade journal (bad magic)")
		}
		if _, err := j.f.WriteAt([]byte(Magic), 0); err != nil {
			return Replay{}, fmt.Errorf("journal: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return Replay{}, fmt.Errorf("journal: %w", err)
		}
		if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
			return Replay{}, fmt.Errorf("journal: %w", err)
		}
		j.size = int64(len(Magic))
		return Replay{TruncatedBytes: info.Size()}, nil
	}
	recs, good, err := scan(j.f)
	if err != nil {
		return Replay{}, err
	}
	rep := Replay{Records: recs, TruncatedBytes: info.Size() - good}
	if rep.TruncatedBytes > 0 {
		if err := j.f.Truncate(good); err != nil {
			return Replay{}, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
		if err := j.f.Sync(); err != nil {
			return Replay{}, fmt.Errorf("journal: %w", err)
		}
	}
	if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
		return Replay{}, fmt.Errorf("journal: %w", err)
	}
	j.size = good
	return rep, nil
}

// scan reads intact frames from the start of f and reports the offset
// of the first byte past the last intact frame. Any malformed frame —
// short header, oversized length, checksum or JSON mismatch — ends the
// scan there: everything after a tear is unacknowledged by contract.
func scan(f *os.File) (recs []Record, good int64, err error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	r := bufio.NewReader(f)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r, magic); err != nil || string(magic) != Magic {
		return nil, 0, fmt.Errorf("journal: not a cascade journal (bad magic)")
	}
	good = int64(len(Magic))
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return recs, good, nil // clean EOF or torn header
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if n == 0 || n > maxFrame {
			return recs, good, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, good, nil
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, good, nil
		}
		var rec Record
		if json.Unmarshal(payload, &rec) != nil {
			return recs, good, nil
		}
		recs = append(recs, rec)
		good += int64(len(hdr)) + int64(n)
	}
}

// frame appends one encoded record to buf.
func frame(buf []byte, rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("journal: marshal record: %w", err)
	}
	if len(payload) > maxFrame {
		return nil, fmt.Errorf("journal: record exceeds %d bytes", maxFrame)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(append(buf, hdr[:]...), payload...), nil
}

// Append durably writes a batch of records: all frames in one write,
// one fsync. On return without error the batch survives a crash. With
// SiteAppend armed and firing, only half the batch's bytes reach the
// file and no sync happens — a genuine torn tail for recovery to repair.
func (j *Journal) Append(recs ...Record) error {
	var buf []byte
	for _, rec := range recs {
		var err error
		if buf, err = frame(buf, rec); err != nil {
			return err
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrClosed
	}
	if err := j.inj.Fail(SiteAppend); err != nil {
		j.f.Write(buf[:len(buf)/2]) // the tear: half a batch, never synced
		return fmt.Errorf("journal append: %w", err)
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal sync: %w", err)
	}
	j.size += int64(len(buf))
	return nil
}

// Rewrite compacts the log: the given records become its entire
// contents, written to a temp file, synced, and atomically renamed over
// the old log (which stays intact if anything fails part-way).
func (j *Journal) Rewrite(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return ErrClosed
	}
	path := filepath.Join(j.dir, logName)
	tmp, err := os.CreateTemp(j.dir, logName+".compact-*")
	if err != nil {
		return fmt.Errorf("journal compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	buf := []byte(Magic)
	for _, rec := range recs {
		if buf, err = frame(buf, rec); err != nil {
			tmp.Close()
			return err
		}
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("journal compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("journal compact: %w", err)
	}
	// The rename orphaned the locked fd; reopen and relock the new file
	// so the incarnation fence follows the live log.
	nf, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal compact: reopen: %w", err)
	}
	if err := lockFile(nf); err != nil {
		nf.Close()
		return fmt.Errorf("journal compact: relock: %w", err)
	}
	j.f.Close()
	j.f = nf
	j.size = int64(len(buf))
	return nil
}

// Size returns the log's durable length in bytes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Close syncs and closes the log, releasing the incarnation lock.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Kill closes the log without a final sync — the crash path for
// recovery tests. The kernel releases the flock with the descriptor,
// exactly as a killed process would.
func (j *Journal) Kill() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
}

// Read scans a journal file read-only and returns its intact records
// plus how many torn-tail bytes follow them. It takes no lock and
// repairs nothing — safe to run against a live coordinator's log (every
// acknowledged batch is fully framed before Append returns).
func Read(path string) ([]Record, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	recs, good, err := scan(f)
	if err != nil {
		return nil, 0, err
	}
	return recs, info.Size() - good, nil
}

// Path returns the location of a journal directory's log file.
func Path(dir string) string { return filepath.Join(dir, logName) }
