package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bundle"
	"repro/internal/checkpoint"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/wire"
)

// WorkerOpts configures the optional capabilities of a worker: monitoring
// counters, logging, and fault-tolerant checkpointing. The zero value is a
// plain worker.
type WorkerOpts struct {
	// Mon feeds the worker monitor's counters when non-nil.
	Mon *Monitor
	// Logf receives operational log lines; nil means log.Printf.
	Logf func(format string, args ...interface{})
	// CheckpointDir enables window checkpointing for fault-tolerant
	// sessions: periodic snapshots land here (one file per session/task)
	// and resuming coordinators are answered from them. Empty disables
	// checkpointing — FT sessions then always resume from scratch.
	CheckpointDir string
	// CheckpointInterval is the minimum spacing between periodic window
	// checkpoints. Zero checkpoints only when a session ends uncleanly
	// (connection break, cancellation) — the cheapest useful setting.
	CheckpointInterval time.Duration
	// Parallelism sizes each session joiner's verifier pool: P-1 helper
	// goroutines fan candidate-bundle verification out across cores
	// (bundle algorithm only), with results merged in deterministic order
	// so the result stream is byte-identical to a sequential worker's.
	// 0 or 1 keeps sessions single-threaded. Concurrent sessions each get
	// their own pool.
	Parallelism int
	// Kernel selects this worker's verification intersection kernel
	// (bundle algorithm only). Worker-local and deliberately not part of
	// the wire protocol: every kernel computes exact overlaps, so the
	// choice cannot change a session's results — a fleet may freely mix
	// kernel settings per machine.
	Kernel similarity.KernelConfig
	// VerifyMode selects this worker's verification organization
	// (collect / tree / auto; bundle algorithm only). Worker-local and
	// off the wire for the same reason as Kernel: every mode emits
	// byte-identical results, so a fleet may mix modes per machine.
	VerifyMode bundle.VerifyMode
	// Frags receives span fragments for traced records (wire v3 trace
	// annotation); nil disables worker-side span recording entirely —
	// untraced records never touch it either way.
	Frags *obs.Fragments
	// Journal receives worker lifecycle events (session start/end,
	// checkpoint, resume, duplicate summaries, kernel mix); nil disables.
	Journal *obs.Journal
}

func (o WorkerOpts) logf(format string, args ...interface{}) {
	if o.Logf != nil {
		o.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// ServeWorker accepts coordinator connections on ln and runs one join
// session per connection until ln is closed or ctx is cancelled. Sessions
// run concurrently; each owns its joiner. The returned error is nil when
// the listener was closed; in-flight sessions are drained before return.
func ServeWorker(ctx context.Context, ln net.Listener, logf func(format string, args ...interface{})) error {
	return ServeWorkerOpts(ctx, ln, WorkerOpts{Logf: logf})
}

// ServeWorkerMonitored behaves like ServeWorker and additionally feeds the
// monitor's counters (mon may be nil).
func ServeWorkerMonitored(ctx context.Context, ln net.Listener, logf func(format string, args ...interface{}), mon *Monitor) error {
	return ServeWorkerOpts(ctx, ln, WorkerOpts{Logf: logf, Mon: mon})
}

// ServeWorkerOpts is ServeWorker with the full option set, including
// fault-tolerant checkpointing.
func ServeWorkerOpts(ctx context.Context, ln net.Listener, o WorkerOpts) error {
	mon := o.Mon
	stopCancel := context.AfterFunc(ctx, func() { ln.Close() })
	defer stopCancel()
	var wg sync.WaitGroup
	defer wg.Wait() // graceful drain: finish in-flight sessions first
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			defer conn.Close()
			stopConn := context.AfterFunc(ctx, func() { conn.Close() })
			defer stopConn()
			if mon != nil {
				mon.SessionsStarted.Add(1)
			}
			start := time.Now()
			err := HandleSessionOpts(ctx, conn, conn, o)
			if mon != nil {
				mon.SessionLatency.Observe(time.Since(start))
			}
			if err != nil {
				if mon != nil {
					mon.SessionsFailed.Add(1)
				}
				o.logf("remote worker: session ended with error: %v", err)
			} else if mon != nil {
				mon.SessionsFinished.Add(1)
			}
		}(conn)
	}
}

// HandleSession runs one worker-side join session over the given
// reader/writer pair (a TCP connection in production, an in-memory pipe in
// tests). It returns when the coordinator sends EOF (nil error), the
// stream breaks, or ctx is cancelled between frames. Callers streaming
// over a blocking transport should additionally arrange for cancellation
// to close the transport (ServeWorker does).
func HandleSession(ctx context.Context, r io.Reader, w io.Writer) error {
	return HandleSessionOpts(ctx, r, w, WorkerOpts{})
}

// HandleSessionMonitored is HandleSession with optional monitor counters.
func HandleSessionMonitored(ctx context.Context, r io.Reader, w io.Writer, mon *Monitor) error {
	return HandleSessionOpts(ctx, r, w, WorkerOpts{Mon: mon})
}

// checkpointPath names the checkpoint file for one FT session/task pair.
func checkpointPath(dir string, sessionID uint64, task int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%016x-t%03d.ckpt", sessionID, task))
}

// Worker-side flow-control parameters (wire v4).
const (
	// workerRecordWindow is the per-connection record credit granted in the
	// resume ack; half of it is the replenishment batch.
	workerRecordWindow = 4096
	// unackedPauseHigh/-Low are the unacked-result watermarks at which a
	// durable session asks the coordinator to pause and resume the record
	// stream.
	unackedPauseHigh = 8192
	unackedPauseLow  = 4096
)

// writeCheckpointFile atomically replaces path with a fresh checkpoint of
// j at cursor cur (write to a temp file, then rename). A non-nil meta
// prepends the v2 session envelope (plan hash, unacked results).
func writeCheckpointFile(path string, cur checkpoint.Cursor, j local.Joiner, meta *checkpoint.SessionMeta) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if meta != nil {
		if err := checkpoint.WriteSessionHeader(f, *meta); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := checkpoint.Write(f, cur, j); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// HandleSessionOpts is HandleSession with the full worker option set.
//
// Fault-tolerant sessions (Hello flag FT) extend the plain protocol:
//
//   - a ResumeAck frame answers the hello, carrying the next record ID the
//     worker expects — restored from its checkpoint when the hello asked
//     to resume (and one exists), zero otherwise;
//   - a hello with FT set but Resume clear discards any stale checkpoint
//     for the session: the coordinator is rebuilding this worker's state
//     from scratch and a later resume must not revive pre-rebuild state;
//   - Ping frames are answered with a flushed Pong;
//   - records with IDs at or below the resume cursor are dropped as
//     duplicates (the coordinator replays at least the lost tail, and the
//     fault-injection harness can duplicate frames outright);
//   - the window is checkpointed periodically (CheckpointInterval) and on
//     any unclean exit, and the checkpoint is removed on a clean EOF.
func HandleSessionOpts(ctx context.Context, r io.Reader, w io.Writer, o WorkerOpts) error {
	mon := o.Mon
	wr := wire.NewWriter(w)
	rd := wire.NewReader(r)

	typ, err := rd.Next()
	if err != nil {
		return fmt.Errorf("remote: reading hello: %w", err)
	}
	// The handshake frame is consumed before the dispatch loop starts.
	// wire-handled: worker TypeHello
	if typ != wire.TypeHello {
		return fmt.Errorf("remote: expected hello, got frame type %d", typ)
	}
	h, err := rd.ReadHello()
	if err != nil {
		return err
	}
	sess, strat, err := sessionFromHello(h)
	if err != nil {
		return err
	}
	if h.FT && sess.Bi {
		return errors.New("remote: fault-tolerant bi sessions unsupported")
	}
	comp := fmt.Sprintf("worker/%d", h.Task)
	o.Journal.Append("session_start", comp,
		fmt.Sprintf("session %016x task %d/%d ft=%v resume=%v", h.SessionID, h.Task, h.Workers, h.FT, h.Resume))
	opts := local.Options{
		Params:      sess.Params,
		Window:      sess.Window,
		Bundle:      sess.Bundle,
		Parallelism: o.Parallelism,
	}
	opts.Bundle.Kernel = o.Kernel
	opts.Bundle.VerifyMode = o.VerifyMode
	var (
		joiner local.Joiner
		bi     *local.BiJoiner
	)
	if sess.Bi {
		bi = local.NewBi(sess.Algorithm, opts)
	} else {
		joiner = local.New(sess.Algorithm, opts)
	}
	// Parallel joiners own helper goroutines; release them however the
	// session ends. The deferred read sees the latest joiner even after
	// the torn-checkpoint replacement below.
	defer func() {
		if bi != nil {
			bi.Close()
		} else if joiner != nil {
			local.CloseJoiner(joiner)
		}
	}()

	// FT handshake: restore or discard the checkpoint, then ack the cursor.
	ckptPath := ""
	if h.FT && o.CheckpointDir != "" {
		ckptPath = checkpointPath(o.CheckpointDir, h.SessionID, h.Task)
	}
	var (
		lastID   uint64
		lastTime int64
		haveLast bool
		// unacked is the durable-mode result buffer: everything emitted but
		// not yet acknowledged as durable by a coordinator Credit frame, in
		// emission order. Restored from the checkpoint's v2 envelope on
		// resume and re-sent after the ack.
		unacked    []wire.Result
		selfPaused bool
	)
	// v4 gates the flow-control frames: both peers speak wire v4 and the
	// session is fault-tolerant (a plain coordinator has no credit loop).
	v4 := h.Version >= 4 && h.FT
	if h.FT {
		next := uint64(0)
		if h.Resume && ckptPath != "" {
			if blob, rerr := os.ReadFile(ckptPath); rerr == nil {
				startFresh := func(why error) {
					// A torn or stale file must not poison the session:
					// drop the partially-loaded joiner and start fresh.
					o.logf("remote worker: checkpoint %s unreadable, starting fresh: %v", ckptPath, why)
					local.CloseJoiner(joiner)
					joiner = local.New(sess.Algorithm, opts)
				}
				meta, body, isV2, herr := checkpoint.ReadSessionHeader(bytes.NewReader(blob))
				if herr != nil {
					startFresh(herr)
				} else if isV2 && h.PlanHash != 0 && meta.PlanHash != 0 && meta.PlanHash != h.PlanHash {
					// The checkpoint belongs to a different launch plan —
					// a stale state directory reused under the same session
					// id. Resuming it would replay wrong-range records, so
					// refuse loudly instead of degrading silently.
					o.Journal.Append("resume_rejected", comp,
						fmt.Sprintf("session %016x checkpoint plan %016x does not match hello plan %016x",
							h.SessionID, meta.PlanHash, h.PlanHash))
					return fmt.Errorf("remote: session %016x task %d: checkpoint plan hash %016x, hello plan hash %016x: %w",
						h.SessionID, h.Task, meta.PlanHash, h.PlanHash, checkpoint.ErrPlanMismatch)
				} else if cur, n, cerr := checkpoint.Read(body, joiner); cerr != nil {
					startFresh(cerr)
				} else {
					next = cur.NextID
					lastTime = cur.NextTime - 1
					unacked = meta.Unacked
					if mon != nil {
						mon.SessionsResumed.Add(1)
					}
					o.Journal.Append("resume", comp,
						fmt.Sprintf("session %016x restored %d records from checkpoint, next id %d, %d unacked results",
							h.SessionID, n, next, len(unacked)))
					o.logf("remote worker: resumed session %016x task %d from checkpoint (%d records, next id %d)",
						h.SessionID, h.Task, n, next)
				}
			}
		} else if !h.Resume && ckptPath != "" {
			os.Remove(ckptPath)
		}
		if next > 0 {
			lastID, haveLast = next-1, true
		}
		if v4 {
			if err := wr.WriteResumeAckCredit(next, workerRecordWindow); err != nil {
				return fmt.Errorf("remote: writing resume ack: %w", err)
			}
		} else if err := wr.WriteResumeAck(next); err != nil {
			return fmt.Errorf("remote: writing resume ack: %w", err)
		}
	}
	if mon != nil && len(unacked) > 0 {
		mon.UnackedResults.Add(int64(len(unacked)))
	}

	task, workers := h.Task, h.Workers
	var writeErr error
	// emitted counts results written this session; the record loop diffs it
	// around a traced Step to decide whether a "deliver" span exists. Step
	// merges parallel-verifier results on the calling goroutine, so the
	// counter needs no synchronization.
	var emitted uint64
	// cur is the record being joined; the one emit closure reads it, so
	// the record loop builds no closure per record.
	var cur *record.Record
	emit := func(m local.Match) {
		if writeErr != nil {
			return
		}
		if !strat.Emits(cur, m.Rec, task, workers) {
			return
		}
		a, b := cur.ID, m.Rec.ID
		if a > b {
			a, b = b, a
		}
		if mon != nil {
			mon.ResultsEmitted.Add(1)
		}
		emitted++
		res := wire.Result{A: a, B: b, Sim: m.Sim}
		writeErr = wr.WriteResult(res)
		if h.Durable {
			unacked = append(unacked, res)
			if mon != nil {
				mon.UnackedResults.Add(1)
			}
			if v4 && !selfPaused && len(unacked) >= unackedPauseHigh {
				// Ask the coordinator to hold records until the credit
				// stream drains the buffer below the low watermark.
				selfPaused = true
				if mon != nil {
					mon.PausedSessions.Add(1)
				}
				o.Journal.Append("flow_pause", comp,
					fmt.Sprintf("session %016x paused the record stream: %d unacked results", h.SessionID, len(unacked)))
				if werr := wr.WritePause(); werr != nil && writeErr == nil {
					writeErr = werr
				}
			}
		}
	}

	// Re-send the restored unacked tail: the previous coordinator may have
	// died before persisting these; the new one's dedup drops any it
	// already has and acknowledges all of them either way.
	for _, res := range unacked {
		if err := wr.WriteResult(res); err != nil {
			return fmt.Errorf("remote: re-sending unacked result: %w", err)
		}
	}

	sendStats := func() error {
		var c local.Cost
		if bi != nil {
			cl, cr := bi.CostLeft(), bi.CostRight()
			c = local.Cost{
				Probes: cl.Probes + cr.Probes, Stored: cl.Stored + cr.Stored,
				Scanned: cl.Scanned + cr.Scanned, Candidates: cl.Candidates + cr.Candidates,
				Verified: cl.Verified + cr.Verified, Results: cl.Results + cr.Results,
				VerifySteps: cl.VerifySteps + cr.VerifySteps, Postings: cl.Postings + cr.Postings,
			}
		} else {
			c = joiner.Cost()
		}
		return wr.WriteStats(wire.Stats{
			Probes: c.Probes, Stored: c.Stored, Scanned: c.Scanned,
			Candidates: c.Candidates, Verified: c.Verified,
			Results: c.Results, VerifySteps: c.VerifySteps,
			Postings: c.Postings,
		})
	}

	saveCheckpoint := func() {
		if ckptPath == "" || !haveLast {
			return
		}
		// Flush-consistency: a checkpoint's cursor may only cover records
		// whose results are on the wire, or a resume would skip replaying
		// them and their results would be lost with the dead connection.
		// When the flush fails the connection is broken and the previous
		// (flush-consistent) checkpoint stays in place.
		if err := wr.Flush(); err != nil {
			return
		}
		cur := checkpoint.Cursor{NextID: lastID + 1, NextTime: lastTime + 1}
		var meta *checkpoint.SessionMeta
		if h.Durable || h.PlanHash != 0 {
			meta = &checkpoint.SessionMeta{PlanHash: h.PlanHash, Unacked: unacked}
		}
		if err := writeCheckpointFile(ckptPath, cur, joiner, meta); err != nil {
			o.logf("remote worker: checkpoint write failed: %v", err)
			return
		}
		if mon != nil {
			mon.CheckpointsWritten.Add(1)
			mon.MarkCheckpoint()
		}
		o.Journal.Append("checkpoint", comp,
			fmt.Sprintf("session %016x checkpointed, cursor next_id=%d", h.SessionID, cur.NextID))
	}

	lastCkpt := time.Now()
	first := true
	var dups uint64
	var consumed uint64 // records since the last credit replenishment (v4)
	loop := func() error {
		for {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("remote: session cancelled: %w", err)
			}
			typ, err := rd.Next()
			if err != nil {
				return fmt.Errorf("remote: reading frame: %w", err)
			}
			// wire-dispatch: worker
			switch typ {
			case wire.TypePing:
				if err := wr.WritePong(); err != nil {
					return fmt.Errorf("remote: writing pong: %w", err)
				}
			case wire.TypeSnapshot:
				if !first {
					return errors.New("remote: snapshot frame after records")
				}
				if bi != nil {
					return errors.New("remote: snapshots unsupported for bi sessions")
				}
				if h.FT {
					return errors.New("remote: snapshot seeding unsupported for ft sessions")
				}
				blob := rd.ReadSnapshot()
				if _, _, err := checkpoint.Read(bytes.NewReader(blob), joiner); err != nil {
					return fmt.Errorf("remote: restoring snapshot: %w", err)
				}
				first = false
			case wire.TypeRecord:
				first = false
				rt, err := rd.ReadRecord()
				if err != nil {
					return err
				}
				if v4 {
					// Replenish the coordinator's record credit in half-window
					// batches. Duplicates count too: the coordinator spent
					// credit on every frame it sent.
					consumed++
					if consumed >= workerRecordWindow/2 {
						if cerr := wr.WriteCredit(consumed); cerr != nil {
							return fmt.Errorf("remote: writing credit: %w", cerr)
						}
						consumed = 0
					}
				}
				if h.FT && haveLast && uint64(rt.Rec.ID) <= lastID {
					// Replay overlap or an injected duplicate frame: the
					// window already holds this record.
					if mon != nil {
						mon.DuplicateRecords.Add(1)
					}
					dups++
					continue
				}
				// The wire trace annotation decodes to a zero TraceID on
				// untraced records, so this branch costs one comparison on
				// the untraced hot path.
				traced := rt.TraceID != 0 && o.Frags != nil
				var rstart time.Time
				if mon != nil || traced {
					rstart = time.Now()
				}
				if mon != nil {
					mon.RecordsSeen.Add(1)
					mon.InFlightRecords.Add(1)
				}
				eBefore := emitted
				cur = rt.Rec
				if bi != nil {
					bi.StepSide(rt.Rec, rt.Right, rt.Store, emit)
				} else {
					joiner.Step(rt.Rec, rt.Store, emit)
				}
				cur = nil
				if mon != nil || traced {
					stepEnd := time.Now()
					if mon != nil {
						mon.RecordLatency.Observe(stepEnd.Sub(rstart))
						mon.InFlightRecords.Add(-1)
					}
					if traced {
						// Mirror the in-process chain: queue (frame decoded,
						// attaches at the wire parent) -> process (the join
						// step) -> deliver (results written), so a stitched
						// trace reads the same across deployment modes.
						qi := o.Frags.Append(rt.TraceID, rt.ParentSpan, "queue", comp, h.Task, -1, rstart, rstart)
						pi := o.Frags.Append(rt.TraceID, rt.ParentSpan, "process", comp, h.Task, qi, rstart, stepEnd)
						if emitted > eBefore {
							o.Frags.Append(rt.TraceID, rt.ParentSpan, "deliver", comp, h.Task, pi, stepEnd, time.Now())
						}
						if mon != nil {
							mon.ObserveTraced(stepEnd.Sub(rstart), rt.TraceID)
						}
					}
				}
				if writeErr != nil {
					return fmt.Errorf("remote: writing result: %w", writeErr)
				}
				lastID, lastTime, haveLast = uint64(rt.Rec.ID), rt.Rec.Time, true
				if ckptPath != "" && o.CheckpointInterval > 0 && time.Since(lastCkpt) >= o.CheckpointInterval {
					saveCheckpoint()
					lastCkpt = time.Now()
				}
			case wire.TypeCredit:
				// Coordinator acknowledgement: the first n results of the
				// unacked buffer are durable in its results log. Clamp n —
				// counts are advisory, the buffer is the truth.
				n, cerr := rd.ReadCredit()
				if cerr != nil {
					return cerr
				}
				d := len(unacked)
				if n < uint64(d) {
					d = int(n)
				}
				if d > 0 {
					unacked = unacked[d:]
					if len(unacked) == 0 {
						unacked = nil // release the drained backing array
					}
					if mon != nil {
						mon.UnackedResults.Add(-int64(d))
					}
				}
				if selfPaused && len(unacked) <= unackedPauseLow {
					selfPaused = false
					if mon != nil {
						mon.PausedSessions.Add(-1)
					}
					o.Journal.Append("flow_resume", comp,
						fmt.Sprintf("session %016x resumed the record stream: %d unacked results", h.SessionID, len(unacked)))
					if werr := wr.WriteResume(); werr != nil {
						return fmt.Errorf("remote: writing resume: %w", werr)
					}
				}
			case wire.TypePause:
				// Coordinator-side admission control parked the record
				// stream; keep serving pings and credits.
				o.Journal.Append("paused", comp,
					fmt.Sprintf("session %016x paused by coordinator", h.SessionID))
			case wire.TypeResume:
				o.Journal.Append("resumed", comp,
					fmt.Sprintf("session %016x resumed by coordinator", h.SessionID))
			case wire.TypeEOF:
				return sendStats()
			case wire.TypeSnapshotReq:
				if bi != nil {
					return errors.New("remote: snapshots unsupported for bi sessions")
				}
				if err := sendStats(); err != nil {
					return err
				}
				var blob bytes.Buffer
				if err := checkpoint.Write(&blob, checkpoint.Cursor{}, joiner); err != nil {
					return fmt.Errorf("remote: snapshotting: %w", err)
				}
				return wr.WriteSnapshot(blob.Bytes())
			default:
				return fmt.Errorf("remote: unexpected frame type %d", typ)
			}
		}
	}
	err = loop()
	if mon != nil {
		// The session's live buffer is gone either way; what survives a
		// crash lives in the checkpoint, not the gauge.
		mon.UnackedResults.Add(-int64(len(unacked)))
		if selfPaused {
			mon.PausedSessions.Add(-1)
		}
	}
	if ckptPath != "" {
		if err != nil {
			// Unclean end: persist the window so a resuming coordinator
			// replays only the tail.
			saveCheckpoint()
		} else {
			os.Remove(ckptPath)
		}
	}
	if o.Journal != nil {
		if dups > 0 {
			o.Journal.Append("duplicates", comp,
				fmt.Sprintf("session %016x dropped %d duplicate records via the replay filter", h.SessionID, dups))
		}
		if bs, ok := joiner.(interface{ BundleStats() bundle.Stats }); ok && joiner != nil {
			st := bs.BundleStats()
			if st.KernelLinear+st.KernelGallop+st.KernelBitset > 0 {
				o.Journal.Append("kernel_mix", comp,
					fmt.Sprintf("session %016x verify kernels: linear=%d gallop=%d bitset=%d",
						h.SessionID, st.KernelLinear, st.KernelGallop, st.KernelBitset))
			}
		}
		status := "clean"
		if err != nil {
			status = "error: " + err.Error()
		}
		o.Journal.Append("session_end", comp,
			fmt.Sprintf("session %016x ended (%s), %d results", h.SessionID, status, emitted))
	}
	return err
}
