package fabric

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/experiments"
	"repro/internal/fabric/journal"
	"repro/internal/metrics"
	"repro/internal/server"
)

// FuzzCoordinatorRecovery recovers a coordinator over a damaged journal
// and runs it to completion. The history is short and valid: a merged
// job with a retried point, an in-flight one with a retried point and
// an open lease, and a failed one. The fuzzer cuts it short and flips
// up to three bits in what is left; the result cache holds every result
// the history wrote, as a crash leaves it, less the point results the
// fuzzer marks lost (bit i of lost drops the i-th point of f1 then f2).
// Recovery must then
//
//   - refuse a damaged magic, and start over anything else;
//   - forget every job whose merge it replayed, and merge no job twice;
//   - finish every other accepted job it replayed: done with the
//     single-node bytes, or failed with a typed error code;
//   - journal no point's completion twice and close every lease it
//     assigned, and never trip the runtime conservation identities.
func FuzzCoordinatorRecovery(f *testing.F) {
	const exp = "fab-fuzz-recovery"
	registerSweep(exp, 3, nil)
	reg := []experiments.Experiment{syntheticExperiment(exp)}

	// A fake worker: it runs each shipped point locally and answers with
	// the one-envelope reply a cascade-server sends.
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Point experiments.PointSpec `json:"point"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			server.WriteEnvelopeError(w, http.StatusBadRequest, server.CodeBadRequest, err.Error())
			return
		}
		res, err := experiments.RunPoint(r.Context(), req.Point)
		if err != nil {
			server.WriteEnvelopeError(w, http.StatusInternalServerError, server.CodeExperimentFailed, err.Error())
			return
		}
		server.WriteJSON(w, http.StatusOK, server.Envelope{Version: server.APIVersion, Point: &res})
	}))
	defer worker.Close()

	// The history's jobs, keyed as the coordinator keys them, and every
	// result it put in the cache.
	type fuzzJob struct {
		id     string
		params server.JobParams
		key    string
		pkeys  []string
		render []byte
	}
	cached := map[string][]byte{}
	var pointKeys []string // the cached point results, in lost's bit order
	jobs := map[string]*fuzzJob{}
	for i, id := range []string{"f1", "f2", "f3"} {
		p := server.JobParams{N: i + 1}.WithDefaults()
		jk, err := server.JobKey(exp, p)
		if err != nil {
			f.Fatal(err)
		}
		j := &fuzzJob{id: id, params: p, key: server.RenderKey(jk, "json"), render: expectedRender(f, exp, p)}
		specs, _ := experiments.Decompose(exp, p.RunConfig())
		for _, ps := range specs {
			k, err := canon.PointKey(ps)
			if err != nil {
				f.Fatal(err)
			}
			j.pkeys = append(j.pkeys, k)
			res, err := experiments.RunPoint(context.Background(), ps)
			if err != nil {
				f.Fatal(err)
			}
			val, _ := json.Marshal(res)
			if id != "f3" {
				cached[k] = val
				pointKeys = append(pointKeys, k)
			}
		}
		jobs[id] = j
	}
	cached[jobs["f1"].key] = jobs["f1"].render

	accepted := func(j *fuzzJob) journal.Record {
		raw, _ := json.Marshal(j.params)
		return journal.Record{Type: journal.TypeJobAccepted, Job: j.id, Experiment: exp, Params: raw, Key: j.key}
	}
	assigned := func(j *fuzzJob, idx int) journal.Record {
		return journal.Record{Type: journal.TypePointAssigned, Job: j.id, Index: idx, Key: j.pkeys[idx], Epoch: 1}
	}
	completed := func(j *fuzzJob, idx int) journal.Record {
		return journal.Record{Type: journal.TypePointCompleted, Job: j.id, Index: idx, Key: j.pkeys[idx]}
	}
	retried := func(j *fuzzJob, idx int) journal.Record {
		return journal.Record{Type: journal.TypePointRetried, Job: j.id, Index: idx}
	}
	f1, f2, f3 := jobs["f1"], jobs["f2"], jobs["f3"]
	history := []journal.Record{
		{Type: journal.TypeEpoch, Epoch: 1},
		accepted(f1),
		assigned(f1, 0), completed(f1, 0),
		assigned(f1, 1), retried(f1, 1),
		assigned(f1, 1), completed(f1, 1),
		assigned(f1, 2), completed(f1, 2),
		{Type: journal.TypeJobMerged, Job: "f1", Key: f1.key},
		accepted(f2),
		assigned(f2, 0), assigned(f2, 1),
		completed(f2, 0), retried(f2, 1),
		assigned(f2, 1), completed(f2, 1),
		assigned(f2, 2),
		accepted(f3),
		assigned(f3, 0),
		{Type: journal.TypePointFailed, Job: "f3", Index: 0, Error: "synthetic failure", Code: server.CodeExperimentFailed},
		{Type: journal.TypeJobFailed, Job: "f3", Error: "point 0: synthetic failure", Code: server.CodeExperimentFailed,
			Repro: json.RawMessage(`{"schema":"synthetic"}`)},
	}
	src := f.TempDir()
	jn, _, err := journal.Open(src, nil)
	if err != nil {
		f.Fatal(err)
	}
	var ends []int64 // ends[i]: offset just past record i
	for _, rec := range history {
		if err := jn.Append(rec); err != nil {
			f.Fatal(err)
		}
		ends = append(ends, jn.Size())
	}
	jn.Close()
	full, err := os.ReadFile(journal.Path(src))
	if err != nil {
		f.Fatal(err)
	}

	f.Add(uint16(len(full)), []byte(nil), uint8(0))
	f.Add(uint16(0), []byte(nil), uint8(0))
	f.Add(uint16(7), []byte(nil), uint8(0))
	f.Add(uint16(len(journal.Magic)), []byte(nil), uint8(0))
	for _, i := range []int{1, 9, 10, 18, 19, 21, 22} {
		f.Add(uint16(ends[i]), []byte(nil), uint8(0))   // just past a record
		f.Add(uint16(ends[i]-3), []byte(nil), uint8(0)) // inside it
	}
	f.Add(uint16(len(full)), []byte{0, byte(8 * (ends[12] + 2))}, uint8(0))
	f.Add(uint16(len(full)), []byte{0, 3}, uint8(0))
	f.Add(uint16(len(full)), []byte(nil), uint8(1<<3)) // f2's point 0 lost: completed, yet re-run

	f.Fuzz(func(t *testing.T, cut uint16, flips []byte, lost uint8) {
		data := append([]byte(nil), full[:int(cut)%(len(full)+1)]...)
		n := int64(len(data))
		for k := 0; k+1 < len(flips) && k < 6 && n > 0; k += 2 {
			bit := (int64(flips[k])<<8 | int64(flips[k+1])) % (8 * n)
			data[bit/8] ^= 1 << (bit % 8)
		}
		jdir, cacheDir := t.TempDir(), t.TempDir()
		if err := os.WriteFile(journal.Path(jdir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		// What recovery will replay: the intact frames of the damaged log.
		var replayed []journal.Record
		head := min(n, int64(len(journal.Magic)))
		magicOK := string(data[:head]) == journal.Magic[:head]
		if magicOK && n > int64(len(journal.Magic)) {
			if replayed, _, err = journal.Read(journal.Path(jdir)); err != nil {
				t.Fatal(err)
			}
		}
		cache, err := server.NewCache(cacheDir, metrics.NewSynced())
		if err != nil {
			t.Fatal(err)
		}
		dropped := map[string]bool{}
		for b, k := range pointKeys {
			if lost>>b&1 == 1 {
				dropped[k] = true
			}
		}
		for k, v := range cached {
			if dropped[k] {
				continue
			}
			if err := cache.Put(k, v); err != nil {
				t.Fatal(err)
			}
		}

		c, err := New(Config{Experiments: reg, CacheDir: cacheDir, JournalDir: jdir, RetryBackoff: time.Millisecond})
		if !magicOK {
			if err == nil {
				c.Shutdown(context.Background())
				t.Fatal("recovered over a damaged magic")
			}
			return
		}
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		defer c.Shutdown(context.Background())
		if err := c.Register("w", worker.URL); err != nil {
			t.Fatal(err)
		}

		state := map[string]string{} // job id -> its last replayed record type
		for _, rec := range replayed {
			if rec.Job != "" && (rec.Type == journal.TypeJobAccepted || state[rec.Job] != "") {
				if s := state[rec.Job]; s != journal.TypeJobMerged && s != journal.TypeJobFailed {
					state[rec.Job] = rec.Type
				}
			}
		}
		for _, id := range []string{"f1", "f2", "f3"} {
			switch state[id] {
			case "", journal.TypeJobMerged:
				if v, ok := c.Job(id); ok {
					t.Fatalf("job %s: replayed %q, yet recovery knows it (%s)", id, state[id], v.State)
				}
			case journal.TypeJobFailed:
				if v, ok := c.Job(id); !ok || v.State != server.StateFailed || v.ErrorCode != server.CodeExperimentFailed {
					t.Fatalf("job %s: journaled failed, rehydrated ok=%v %+v", id, ok, v)
				}
			default:
				v, ok := c.Await(id, 30*time.Second, nil)
				switch {
				case !ok:
					t.Fatalf("job %s: accepted but not re-adopted", id)
				case v.State == server.StateDone && string(v.Result) != string(jobs[id].render):
					t.Fatalf("job %s: recovered result %q, want the single-node %q", id, v.Result, jobs[id].render)
				case v.State != server.StateDone && (v.State != server.StateFailed || v.ErrorCode == ""):
					t.Fatalf("job %s: finished %s with code %q, want done or a typed failure", id, v.State, v.ErrorCode)
				}
			}
		}
		checkConservation(t, c)
		c.Shutdown(context.Background())

		recs, torn, err := journal.Read(journal.Path(jdir))
		if err != nil || torn != 0 {
			t.Fatalf("journal after recovery: %d torn bytes, %v", torn, err)
		}
		for _, id := range []string{"f1", "f2", "f3"} {
			counts := countRecords(recs, id)
			if state[id] == journal.TypeJobMerged && len(counts.completedByIndex)+counts.assigned+counts.merged > 0 {
				t.Fatalf("job %s merged before the crash, yet the journal holds its records: %+v", id, counts)
			}
			if counts.merged > 1 {
				t.Fatalf("job %s merged %d times", id, counts.merged)
			}
			for idx, k := range counts.completedByIndex {
				if k > 1 {
					t.Fatalf("job %s point %d journaled completed %d times", id, idx, k)
				}
			}
			if counts.assigned != counts.completed+counts.retried+counts.failed {
				t.Fatalf("job %s: assigned %d != completed %d + retried %d + failed %d",
					id, counts.assigned, counts.completed, counts.retried, counts.failed)
			}
		}
	})
}
