// Durable session state for fault-tolerant runs: a persistent ingest log
// (every dispatched record), a persistent results log (every distinct
// result, appended before it is acknowledged to the worker), and the
// session manifest tying them to the launch configuration. Together they
// make the *coordinator* restartable: a fresh process loads the manifest,
// re-reads the ingest log, seeds its result dedup from the results log,
// and re-drives the session — workers resume from their own checkpoints
// and re-send their unacknowledged result tails, so the final result set
// is exactly the uninterrupted run's.
//
// Result-acknowledgement protocol (wire v4 Credit frames, coordinator →
// worker): the reader goroutine counts, per connection, each *distinct*
// result received while durable mode is on (new results are appended to
// the results log first; re-sent ones are already there). The write loop
// syncs the results log and grants the outstanding count as credit. A
// worker drops acknowledged results from its unacked buffer in emission
// order — sound because a connection delivers frames in order with only
// tail loss, so by the time any credit arrives, every result at the front
// of the worker's buffer has been received and persisted.
package remote

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/record"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Durable configures persistent session state for RunFT. StateDir is laid
// out as:
//
//	<StateDir>/manifest.json   session manifest (checkpoint.Manifest)
//	<StateDir>/ingest/         WAL of dispatched records, one frame each
//	<StateDir>/results/        WAL of distinct results, one frame each
type Durable struct {
	// StateDir roots the session's persistent state. Created if missing.
	StateDir string
	// Sync is the WAL fsync policy for both logs (wal.SyncInterval when
	// zero). Result acknowledgements sync explicitly before each credit
	// grant regardless, so the durability of *acknowledged* results never
	// depends on this knob.
	Sync wal.SyncPolicy
	// SegmentBytes is the WAL segment rotation threshold (wal default when
	// zero).
	SegmentBytes int64
	// Resume marks this run as a restart: the ingest log already holds the
	// record stream (the caller re-read it from there), the results log
	// seeds the coordinator's dedup, and workers are asked to resume.
	Resume bool
	// Workers records the worker addresses in the manifest so a resuming
	// process knows the fleet. Informational — dialing stays the caller's
	// Dialer.
	Workers []string
}

const (
	ingestLogDir  = "ingest"
	resultsLogDir = "results"
)

// durableState is the runtime handle on a durable session's two logs plus
// a shared frame encoder.
type durableState struct {
	cfg     Durable
	ingest  *wal.Log
	results *wal.Log
	// skip is the ingest position already persisted by a previous
	// incarnation: dispatch skips appending record indices below it.
	skip uint64

	mu  sync.Mutex
	buf bytes.Buffer
	enc *wire.Writer
}

func openDurable(cfg Durable) (*durableState, error) {
	idir := filepath.Join(cfg.StateDir, ingestLogDir)
	rdir := filepath.Join(cfg.StateDir, resultsLogDir)
	for _, d := range []string{idir, rdir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("remote: creating state dir: %w", err)
		}
	}
	o := wal.Options{Sync: cfg.Sync, SegmentBytes: cfg.SegmentBytes}
	ing, err := wal.Open(idir, o)
	if err != nil {
		return nil, fmt.Errorf("remote: opening ingest log: %w", err)
	}
	res, err := wal.Open(rdir, o)
	if err != nil {
		ing.Close()
		return nil, fmt.Errorf("remote: opening results log: %w", err)
	}
	ds := &durableState{cfg: cfg, ingest: ing, results: res, skip: ing.Next()}
	ds.enc = wire.NewWriter(&ds.buf)
	return ds, nil
}

func (ds *durableState) close() {
	if ds == nil {
		return
	}
	ds.ingest.Close()
	ds.results.Close()
}

// appendRecord persists record number idx of the ingest stream. Indices
// below the resume skip point are already on disk (the records themselves
// came from the log) and are not re-appended.
func (ds *durableState) appendRecord(idx uint64, r *record.Record) error {
	if idx < ds.skip {
		return nil
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.buf.Reset()
	if err := ds.enc.WriteRecord(false, r); err != nil {
		return err
	}
	if err := ds.enc.Flush(); err != nil {
		return err
	}
	_, err := ds.ingest.Append(ds.buf.Bytes())
	return err
}

// appendResult persists one distinct result frame.
func (ds *durableState) appendResult(res wire.Result) error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.buf.Reset()
	if err := ds.enc.WriteResult(res); err != nil {
		return err
	}
	if err := ds.enc.Flush(); err != nil {
		return err
	}
	_, err := ds.results.Append(ds.buf.Bytes())
	return err
}

// seedResults replays the results log into the collector — the restart
// path's dedup seed. Returns how many distinct results were recovered.
func (ds *durableState) seedResults(coll *ftCollector) (int, error) {
	it, err := ds.results.Iter(ds.results.Begin())
	if err != nil {
		return 0, err
	}
	defer it.Close()
	n := 0
	for {
		_, payload, err := it.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, fmt.Errorf("remote: replaying results log: %w", err)
		}
		res, err := decodeResultFrame(payload)
		if err != nil {
			return n, err
		}
		if coll.add(res) {
			n++
		}
	}
}

// decodeRecordFrame decodes one ingest-log payload with rd, which the
// caller reuses across payloads so the decoded records share its slabs.
func decodeRecordFrame(rd *wire.Reader, payload []byte) (*record.Record, error) {
	rd.Reset(bytes.NewReader(payload))
	typ, err := rd.Next()
	if err != nil {
		return nil, fmt.Errorf("remote: ingest log frame: %w", err)
	}
	if typ != wire.TypeRecord {
		return nil, fmt.Errorf("remote: ingest log holds frame type %d, want record", typ)
	}
	rt, err := rd.ReadRecord()
	if err != nil {
		return nil, fmt.Errorf("remote: ingest log frame: %w", err)
	}
	return rt.Rec, nil
}

func decodeResultFrame(payload []byte) (wire.Result, error) {
	rd := wire.NewReader(bytes.NewReader(payload))
	typ, err := rd.Next()
	if err != nil {
		return wire.Result{}, fmt.Errorf("remote: results log frame: %w", err)
	}
	if typ != wire.TypeResult {
		return wire.Result{}, fmt.Errorf("remote: results log holds frame type %d, want result", typ)
	}
	res, err := rd.ReadResult()
	if err != nil {
		return wire.Result{}, fmt.Errorf("remote: results log frame: %w", err)
	}
	return res, nil
}

// ReadIngestLog replays the persisted record stream of a durable session
// state directory — the input a resumed run feeds back into RunFT.
func ReadIngestLog(stateDir string) ([]*record.Record, error) {
	lg, err := wal.Open(filepath.Join(stateDir, ingestLogDir), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return nil, fmt.Errorf("remote: opening ingest log: %w", err)
	}
	defer lg.Close()
	it, err := lg.Iter(lg.Begin())
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []*record.Record
	rd := wire.NewReader(nil)
	for {
		_, payload, err := it.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("remote: replaying ingest log: %w", err)
		}
		r, err := decodeRecordFrame(rd, payload)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
}

// ReadResultsLog replays the persisted distinct results of a durable
// session state directory, in append order.
func ReadResultsLog(stateDir string) ([]wire.Result, error) {
	lg, err := wal.Open(filepath.Join(stateDir, resultsLogDir), wal.Options{Sync: wal.SyncNever})
	if err != nil {
		return nil, fmt.Errorf("remote: opening results log: %w", err)
	}
	defer lg.Close()
	it, err := lg.Iter(lg.Begin())
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []wire.Result
	for {
		_, payload, err := it.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("remote: replaying results log: %w", err)
		}
		res, err := decodeResultFrame(payload)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
}

// SessionControl pauses and resumes a fault-tolerant run's record streams
// from outside: Pause makes every worker's write loop send a wire Pause
// frame and park (heartbeats and result acknowledgements keep flowing, so
// a paused fleet still drains its unacked buffers), Resume releases them.
// Attach one via FT.Control. All methods are safe for concurrent use and
// nil-safe.
type SessionControl struct {
	paused atomic.Bool
	r      atomic.Pointer[ftRunner]
}

// Pause parks every record stream. Idempotent.
func (c *SessionControl) Pause() {
	if c == nil || c.paused.Swap(true) {
		return
	}
	if f := c.r.Load(); f != nil {
		f.journal.Append("pause_all", "coordinator", "record streams paused by session control")
		f.kickAll()
	}
}

// Resume releases a Pause. Idempotent.
func (c *SessionControl) Resume() {
	if c == nil || !c.paused.Swap(false) {
		return
	}
	if f := c.r.Load(); f != nil {
		f.journal.Append("resume_all", "coordinator", "record streams resumed by session control")
		f.kickAll()
	}
}

// Paused reports the current control state.
func (c *SessionControl) Paused() bool { return c != nil && c.paused.Load() }
