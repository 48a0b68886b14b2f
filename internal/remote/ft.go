// Fault-tolerant coordinator: RunFT drives a join like Run, but survives
// worker crashes, hangs and flaky transports. Each worker gets a manager
// goroutine owning its connection lifecycle: heartbeat-based failure
// detection, bounded reconnection with exponential backoff, and resume
// from the worker's checkpoint cursor. Workers that exhaust the retry
// budget are declared dead; in degraded mode (length strategy only) their
// length ranges rebalance onto a surviving heir, which replays the merged
// log from scratch.
//
// Exactness: a resumed worker restores its window from the checkpoint and
// replays the ID-ordered log tail after the cursor, so its window state is
// identical to an uninterrupted run. Replayed records the worker already
// processed are dropped by its duplicate filter; result frames replayed
// across reconnects are dropped by the coordinator's result dedup. The
// final result multiset therefore matches a fault-free run.
package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/wire"
)

// Dialer opens a transport to worker task. RunFT calls it once per
// connection attempt; wrap it to inject faults or route through
// non-TCP transports.
type Dialer func(ctx context.Context, task int) (io.ReadWriteCloser, error)

// FT configures fault tolerance for RunFT.
type FT struct {
	// Retry bounds reconnection attempts per worker. Zero value means no
	// retries: the first transport failure declares the worker dead.
	Retry RetryPolicy
	// HeartbeatInterval paces coordinator pings on idle connections and
	// watchdog checks. Zero defaults to one second.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the silence span after which a connection is
	// considered hung and severed (progress on either direction counts as
	// life). Zero defaults to five heartbeat intervals.
	HeartbeatTimeout time.Duration
	// SessionID keys worker-side checkpoints. Reconnects under the same ID
	// resume from the checkpoint; callers must pick an ID not used by a
	// previous unrelated run on the same workers.
	SessionID uint64
	// Degraded allows the run to continue after a worker is declared dead
	// by rebalancing its length ranges onto a surviving heir (length
	// strategy only). Off, a dead worker fails the run.
	Degraded bool
	// Registry receives coordinator fault metrics when non-nil.
	Registry *obs.Registry
	// Durable enables persistent session state (ingest/results logs plus a
	// manifest under Durable.StateDir) making the run resumable after a
	// coordinator crash. Requires a non-zero SessionID.
	Durable *Durable
	// Control, when non-nil, lets the caller pause and resume the record
	// streams mid-run (admission control against a backlogged fleet).
	Control *SessionControl
}

// errEpochChanged aborts an attempt whose worker log was rebuilt (the
// worker inherited a dead peer's records) while the attempt was live. The
// manager reconnects immediately with a fresh session; no retry budget is
// charged.
var errEpochChanged = errors.New("remote: worker log rebuilt during attempt")

// ftEntry is one dispatched record in a worker's replay log. Traced
// entries keep their wire trace annotation so a replay re-sends it — the
// worker-side fragment then shows the retry as duplicate spans, which the
// stitcher surfaces as DuplicateSpans instead of hiding.
type ftEntry struct {
	rec        *record.Record
	store      bool
	traceID    uint64
	parentSpan int
}

// resumeAck is the decoded handshake answer: the worker's resume cursor
// and whether the peer speaks wire v4 (it appended an initial record
// credit to the ack).
type resumeAck struct {
	next uint64
	v4   bool
}

// ftMetrics holds the coordinator-side fault instruments. All fields are
// nil when no registry was supplied.
type ftMetrics struct {
	retries    *obs.Counter
	reconnects *obs.Counter
	replayed   *obs.Counter
	dupResults *obs.Counter
	dead       *obs.Gauge
	recovery   *obs.Histogram
}

func newFTMetrics(reg *obs.Registry) ftMetrics {
	if reg == nil {
		return ftMetrics{}
	}
	return ftMetrics{
		retries: reg.Counter("coord_retries_total",
			"Failed worker connection attempts, including the first."),
		reconnects: reg.Counter("coord_reconnects_total",
			"Successful worker reconnections after a transport failure."),
		replayed: reg.Counter("coord_replayed_records_total",
			"Log entries re-sent to workers during recovery."),
		dupResults: reg.Counter("coord_duplicate_results_total",
			"Result frames dropped by the coordinator's replay dedup."),
		dead: reg.Gauge("coord_dead_workers",
			"Workers declared dead after exhausting the retry budget."),
		recovery: reg.Histogram("coord_recovery_seconds",
			"Time from first failure to successful reconnection."),
	}
}

// ftCollector accumulates results like collector, but drops duplicates: a
// worker replaying its log tail after resume legally re-emits result pairs
// it produced before the crash.
type ftCollector struct {
	collectPairs bool
	mu           sync.Mutex
	results      uint64                // guarded by mu
	pairs        []record.Pair         // guarded by mu
	seen         map[[2]record.ID]bool // guarded by mu
}

// add records one result frame, reporting whether it was new.
func (c *ftCollector) add(res wire.Result) bool {
	key := [2]record.ID{res.A, res.B}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seen[key] {
		return false
	}
	c.seen[key] = true
	c.results++
	if c.collectPairs {
		c.pairs = append(c.pairs, record.Pair{First: res.A, Second: res.B, Sim: res.Sim})
	}
	return true
}

func (c *ftCollector) drain(sum *RunSummary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum.Results = c.results
	sum.Pairs = c.pairs
}

// ftState is the shared run state managers and the dispatch loop mutate.
type ftState struct {
	mu       sync.Mutex
	logs     [][]ftEntry       // guarded by mu
	sentPos  []int             // guarded by mu
	alive    []bool            // guarded by mu
	finished []bool            // guarded by mu
	rebuilt  []bool            // guarded by mu
	epoch    []uint64          // guarded by mu
	conns    []io.Closer       // guarded by mu
	stats    []wire.Stats      // guarded by mu
	bounds   []int             // guarded by mu
	strat    dispatch.Strategy // guarded by mu
	deadList []int             // guarded by mu
	closed   bool              // guarded by mu
	degraded bool              // guarded by mu
	fatal    error             // guarded by mu
}

// ftRunner owns one RunFT invocation.
type ftRunner struct {
	k          int
	sess       Session
	ft         FT
	dial       Dialer
	met        ftMetrics
	tracer     *obs.Tracer
	journal    *obs.Journal
	coll       *ftCollector
	hbInterval time.Duration
	hbTimeout  time.Duration
	canDegrade bool
	origBounds []int
	start      time.Time
	cancel     context.CancelFunc
	durable    *durableState
	planHash   uint64

	st      ftState
	notify  []chan struct{} // per-worker wakeups, capacity 1
	runCh   chan struct{}   // completion-watcher wakeup, capacity 1
	finalCh chan struct{}   // closed when the run is complete

	wg         sync.WaitGroup
	tuples     atomic.Uint64
	bytes      atomic.Uint64
	retries    atomic.Uint64
	reconnects atomic.Uint64
	replayed   atomic.Uint64
}

// kick wakes worker task's manager without blocking.
func (f *ftRunner) kick(task int) {
	select {
	case f.notify[task] <- struct{}{}:
	default:
	}
}

func (f *ftRunner) kickAll() {
	for i := range f.notify {
		f.kick(i)
	}
}

// kickRun wakes the completion watcher without blocking.
func (f *ftRunner) kickRun() {
	select {
	case f.runCh <- struct{}{}:
	default:
	}
}

// setConn registers worker task's live transport so declareDead can sever
// a busy heir mid-attempt.
func (f *ftRunner) setConn(task int, c io.Closer) {
	f.st.mu.Lock()
	f.st.conns[task] = c
	f.st.mu.Unlock()
}

// RunFT executes a join session with fault tolerance: dial is invoked per
// connection attempt, failures are retried under ft.Retry, hung
// connections are severed by the heartbeat watchdog, and reconnected
// workers resume from their checkpoint cursor. Bi sessions and snapshot
// options are not supported.
func RunFT(ctx context.Context, dial Dialer, workers int, sess Session, recs []*record.Record, opts Opts, ft FT) (*RunSummary, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("remote: no workers")
	}
	if sess.Bi {
		return nil, fmt.Errorf("remote: RunFT does not support bi sessions")
	}
	if opts.Snapshot || len(opts.Seed) > 0 {
		return nil, fmt.Errorf("remote: snapshot options unsupported for ft runs")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	strat, err := sess.strategyFor(workers)
	if err != nil {
		return nil, err
	}
	if ft.HeartbeatInterval <= 0 {
		ft.HeartbeatInterval = time.Second
	}
	if ft.HeartbeatTimeout <= 0 {
		ft.HeartbeatTimeout = 5 * ft.HeartbeatInterval
	}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	f := &ftRunner{
		k:          workers,
		sess:       sess,
		ft:         ft,
		dial:       dial,
		met:        newFTMetrics(ft.Registry),
		tracer:     opts.Tracer,
		journal:    opts.Journal,
		coll:       &ftCollector{collectPairs: opts.CollectPairs, seen: make(map[[2]record.ID]bool)},
		hbInterval: ft.HeartbeatInterval,
		hbTimeout:  ft.HeartbeatTimeout,
		canDegrade: ft.Degraded && sess.Strategy == "length",
		origBounds: append([]int(nil), sess.Bounds...),
		start:      time.Now(),
		cancel:     cancel,
		notify:     make([]chan struct{}, workers),
		runCh:      make(chan struct{}, 1),
		finalCh:    make(chan struct{}),
	}
	alive := make([]bool, workers)
	for i := range alive {
		alive[i] = true
	}
	f.st = ftState{
		logs:     make([][]ftEntry, workers),
		sentPos:  make([]int, workers),
		alive:    alive,
		finished: make([]bool, workers),
		rebuilt:  make([]bool, workers),
		epoch:    make([]uint64, workers),
		conns:    make([]io.Closer, workers),
		stats:    make([]wire.Stats, workers),
		bounds:   append([]int(nil), sess.Bounds...),
		strat:    strat,
	}
	for i := range f.notify {
		f.notify[i] = make(chan struct{}, 1)
	}

	if ft.Durable != nil {
		if ft.SessionID == 0 {
			return nil, fmt.Errorf("remote: durable runs need a non-zero session id")
		}
		ds, derr := openDurable(*ft.Durable)
		if derr != nil {
			return nil, derr
		}
		defer ds.close()
		f.durable = ds
		f.planHash = sess.PlanHash(workers)
		if ft.Durable.Resume {
			n, serr := ds.seedResults(f.coll)
			if serr != nil {
				return nil, serr
			}
			f.journal.Append("session_resume", "coordinator",
				fmt.Sprintf("session %016x resumed: %d records in ingest log, %d durable results recovered",
					ft.SessionID, ds.ingest.Next(), n))
		}
		if merr := f.saveManifest(); merr != nil {
			return nil, merr
		}
	}
	if ft.Control != nil {
		ft.Control.r.Store(f)
	}

	for i := 0; i < workers; i++ {
		f.wg.Add(1)
		go func(task int) {
			defer f.wg.Done()
			f.manage(rctx, task)
		}(i)
	}

	err = f.dispatch(rctx, recs)
	if err == nil {
		err = f.await(rctx)
	}
	if err != nil {
		cancel()
		f.wg.Wait()
		f.st.mu.Lock()
		fatal := f.st.fatal
		f.st.mu.Unlock()
		if fatal != nil {
			return nil, fatal
		}
		return nil, err
	}
	close(f.finalCh)
	f.wg.Wait()
	if f.durable != nil {
		// Final manifest: cursors at end-of-log, both WALs synced so the
		// state directory is complete on disk before the summary returns.
		f.durable.ingest.Sync()
		f.durable.results.Sync()
		if merr := f.saveManifest(); merr != nil {
			return nil, merr
		}
	}

	sum := &RunSummary{Records: uint64(len(recs))}
	f.st.mu.Lock()
	sum.WorkerStats = f.st.stats
	sum.Degraded = f.st.degraded
	sum.DeadWorkers = f.st.deadList
	if f.st.degraded {
		sum.RebalancedBounds = f.st.bounds
	}
	f.st.mu.Unlock()
	f.coll.drain(sum)
	sum.Elapsed = time.Since(f.start)
	sum.TuplesSent = f.tuples.Load()
	sum.BytesSent = f.bytes.Load()
	sum.Retries = f.retries.Load()
	sum.Reconnects = f.reconnects.Load()
	sum.ReplayedRecords = f.replayed.Load()
	return sum, nil
}

// dispatch routes every record into the per-worker replay logs, re-reading
// the strategy each record so a degradation mid-stream redirects the tail.
func (f *ftRunner) dispatch(ctx context.Context, recs []*record.Record) error {
	buf := make([]int, 0, f.k)
	touched := make([]int, 0, f.k)
	for i, r := range recs {
		if err := ctx.Err(); err != nil {
			f.st.mu.Lock()
			fatal := f.st.fatal
			f.st.mu.Unlock()
			if fatal != nil {
				return fatal
			}
			return fmt.Errorf("remote: %w", err)
		}
		if f.durable != nil {
			// Persist before routing: a record is only ever sent to a worker
			// after it is in the ingest log, so a restart can always re-drive
			// everything any worker might have partially processed.
			if err := f.durable.appendRecord(uint64(i), r); err != nil {
				return fmt.Errorf("remote: ingest log append: %w", err)
			}
		}
		touched = touched[:0]
		f.st.mu.Lock()
		if f.st.fatal != nil {
			err := f.st.fatal
			f.st.mu.Unlock()
			return err
		}
		tr := f.tracer.Sample()
		var emitIdx int
		if tr != nil {
			now := time.Now()
			emitIdx = tr.Append("emit", "coordinator", 0, -1, now, now)
		}
		buf = f.st.strat.Route(r, f.k, buf[:0])
		for _, dst := range buf {
			// Dead workers keep empty intervals after rebalance, but the
			// route range can still brush them; their records belong to the
			// heir, which the rebalanced strategy already targets.
			if !f.st.alive[dst] {
				continue
			}
			e := ftEntry{rec: r, store: f.st.strat.Stores(r, dst, f.k)}
			if tr != nil {
				now := time.Now()
				e.traceID = tr.ID()
				e.parentSpan = tr.Append("wire", "coordinator", dst, emitIdx, now, now)
			}
			f.st.logs[dst] = append(f.st.logs[dst], e)
			touched = append(touched, dst)
		}
		f.st.mu.Unlock()
		for _, dst := range touched {
			f.kick(dst)
		}
	}
	f.st.mu.Lock()
	f.st.closed = true
	f.st.mu.Unlock()
	f.kickAll()
	if f.durable != nil {
		// Ingest complete: sync the log and stamp the manifest so a crash
		// from here on can replay the full record stream.
		if err := f.durable.ingest.Sync(); err != nil {
			return fmt.Errorf("remote: ingest log sync: %w", err)
		}
		if err := f.saveManifest(); err != nil {
			return err
		}
		f.journal.Append("ingest_sealed", "coordinator",
			fmt.Sprintf("ingest log sealed at %d records", f.durable.ingest.Next()))
	}
	return nil
}

// saveManifest atomically writes the session manifest: launch hello, plan
// hash, current (possibly rebalanced) bounds, WAL positions and advisory
// per-task send cursors.
func (f *ftRunner) saveManifest() error {
	if f.durable == nil {
		return nil
	}
	h, err := f.sess.hello(0, f.k)
	if err != nil {
		return err
	}
	h.FT = true
	h.SessionID = f.ft.SessionID
	h.Durable = true
	h.PlanHash = f.planHash
	m := &checkpoint.Manifest{
		Schema:    checkpoint.ManifestSchema,
		SessionID: f.ft.SessionID,
		PlanHash:  f.planHash,
		Hello:     h,
		Workers:   append([]string(nil), f.durable.cfg.Workers...),
	}
	f.st.mu.Lock()
	m.Bounds = append([]int(nil), f.st.bounds...)
	m.Cursors = make([]checkpoint.TaskCursor, f.k)
	for i := 0; i < f.k; i++ {
		m.Cursors[i] = checkpoint.TaskCursor{Task: i, SentPos: uint64(f.st.sentPos[i])}
	}
	f.st.mu.Unlock()
	m.IngestNext = f.durable.ingest.Next()
	m.ResultsNext = f.durable.results.Next()
	return checkpoint.SaveManifest(filepath.Join(f.durable.cfg.StateDir, checkpoint.ManifestPath), m)
}

// await blocks until every alive worker has finished its full log, or the
// run fails.
func (f *ftRunner) await(ctx context.Context) error {
	for {
		f.st.mu.Lock()
		fatal := f.st.fatal
		done := fatal == nil
		if done {
			for i := 0; i < f.k; i++ {
				if f.st.alive[i] && !f.st.finished[i] {
					done = false
					break
				}
			}
		}
		f.st.mu.Unlock()
		if fatal != nil {
			return fatal
		}
		if done {
			return nil
		}
		select {
		case <-f.runCh:
		case <-ctx.Done():
			f.st.mu.Lock()
			fatal = f.st.fatal
			f.st.mu.Unlock()
			if fatal != nil {
				return fatal
			}
			return fmt.Errorf("remote: %w", ctx.Err())
		}
	}
}

// manage owns worker task for the whole run: it connects, streams, and on
// failure retries under the policy until the worker finishes or is
// declared dead. The consecutive-failure count resets on every successful
// handshake.
func (f *ftRunner) manage(ctx context.Context, task int) {
	failures := 0
	var failSince time.Time
	for {
		if ctx.Err() != nil {
			return
		}
		f.st.mu.Lock()
		alive := f.st.alive[task]
		epoch := f.st.epoch[task]
		resume := !f.st.rebuilt[task]
		parked := f.st.closed && f.st.finished[task]
		f.st.mu.Unlock()
		if !alive {
			return
		}
		if parked {
			// Done — but stay reachable: a later death may rebuild this
			// worker's log and un-finish it.
			select {
			case <-f.finalCh:
				return
			case <-f.notify[task]:
			case <-ctx.Done():
				return
			}
			continue
		}
		handshook, err := f.attempt(ctx, task, epoch, resume, failures > 0 || !failSince.IsZero(), failSince)
		if handshook {
			failures = 0
			failSince = time.Time{}
		}
		if err == nil {
			continue
		}
		if errors.Is(err, errEpochChanged) {
			continue
		}
		if ctx.Err() != nil {
			return
		}
		failures++
		if failSince.IsZero() {
			failSince = time.Now()
		}
		f.retries.Add(1)
		if f.met.retries != nil {
			f.met.retries.Inc()
		}
		f.journal.Append("retry", "coordinator",
			fmt.Sprintf("worker %d attempt %d failed: %v", task, failures, err))
		if failures > f.ft.Retry.MaxAttempts {
			f.declareDead(task, failures, err)
			return
		}
		if sleepCtx(ctx, f.ft.Retry.backoff(failures, uint64(task))) != nil {
			return
		}
	}
}

// attempt runs one connection's full lifecycle: dial, FT handshake with
// resume ack, log replay/stream, EOF, stats. handshook reports whether the
// handshake completed (resetting the manager's failure budget) regardless
// of how the attempt ended.
func (f *ftRunner) attempt(ctx context.Context, task int, epoch uint64, resume, isReconnect bool, failSince time.Time) (handshook bool, err error) {
	conn, err := f.dial(ctx, task)
	if err != nil {
		return false, fmt.Errorf("remote: dialing worker %d: %w", task, err)
	}
	f.setConn(task, conn)
	defer f.setConn(task, nil)

	// Liveness stamps: nanoseconds since run start of the last inbound
	// frame and the last completed outbound write. Progress on either
	// direction keeps the watchdog calm; blocked writes during a backlog
	// still stamp per flushed chunk.
	var lastIn, lastOut atomic.Int64
	now := func() int64 { return int64(time.Since(f.start)) }
	lastIn.Store(now())
	lastOut.Store(now())
	cw := &countingWriter{w: conn, stamp: &lastOut, base: f.start}
	defer func() { f.bytes.Add(cw.n.Load()) }()
	w := wire.NewWriter(cw)

	f.st.mu.Lock()
	sess := f.sess
	sess.Bounds = f.st.bounds
	f.st.mu.Unlock()
	h, err := sess.hello(task, f.k)
	if err != nil {
		conn.Close()
		return false, err
	}
	h.FT = true
	h.Resume = resume
	h.SessionID = f.ft.SessionID
	h.Durable = f.durable != nil
	h.PlanHash = f.planHash
	if err := w.WriteHello(h); err != nil {
		conn.Close()
		return false, fmt.Errorf("remote: hello to worker %d: %w", task, err)
	}
	if err := w.Flush(); err != nil {
		conn.Close()
		return false, fmt.Errorf("remote: hello to worker %d: %w", task, err)
	}

	// Per-attempt flow-control state shared between the reader goroutine
	// and the write loop. Credits are per-connection by design (wire v4):
	// every handshake resets them, so nothing here survives the attempt.
	var (
		recCredit    atomic.Int64  // records the worker will currently accept
		resDurable   atomic.Uint64 // distinct durable results received on this connection
		workerPaused atomic.Bool   // worker-requested pause (unacked watermark)
	)

	ackCh := make(chan resumeAck, 1)
	statsCh := make(chan wire.Stats, 1)
	readErrCh := make(chan error, 1)
	var aw sync.WaitGroup
	aw.Add(1)
	go func() {
		defer aw.Done()
		rd := wire.NewReader(conn)
		ackSeen := false
		// connSeen dedups result frames within this connection so a frame
		// duplicated by a flaky transport is never credited twice — the
		// soundness condition of count-based acknowledgement.
		var connSeen map[[2]record.ID]bool
		if f.durable != nil {
			connSeen = make(map[[2]record.ID]bool)
		}
		for {
			typ, rerr := rd.Next()
			if rerr != nil {
				readErrCh <- fmt.Errorf("remote: worker %d read: %w", task, rerr)
				return
			}
			lastIn.Store(int64(time.Since(f.start)))
			// wire-dispatch: coordinator
			switch typ {
			case wire.TypeResumeAck:
				next, credit, hasCredit, rerr := rd.ReadResumeAckCredit()
				if rerr != nil {
					readErrCh <- rerr
					return
				}
				if ackSeen {
					continue // duplicate ack frame (fault injection); drop
				}
				ackSeen = true
				if hasCredit {
					recCredit.Store(int64(credit))
				}
				ackCh <- resumeAck{next: next, v4: hasCredit}
			case wire.TypeResult:
				res, rerr := rd.ReadResult()
				if rerr != nil {
					readErrCh <- rerr
					return
				}
				isNew := f.coll.add(res)
				if !isNew && f.met.dupResults != nil {
					f.met.dupResults.Inc()
				}
				if f.durable != nil {
					key := [2]record.ID{res.A, res.B}
					if !connSeen[key] {
						connSeen[key] = true
						if isNew {
							if aerr := f.durable.appendResult(res); aerr != nil {
								readErrCh <- fmt.Errorf("remote: results log append: %w", aerr)
								return
							}
						}
						// New or re-sent, the result is now (or already was)
						// in the results log: creditable once synced.
						resDurable.Add(1)
						f.kick(task)
					}
				}
			case wire.TypeCredit:
				n, rerr := rd.ReadCredit()
				if rerr != nil {
					readErrCh <- rerr
					return
				}
				recCredit.Add(int64(n))
				f.kick(task)
			case wire.TypePause:
				workerPaused.Store(true)
				f.journal.Append("worker_pause", "coordinator",
					fmt.Sprintf("worker %d asked to pause: unacked results over watermark", task))
			case wire.TypeResume:
				workerPaused.Store(false)
				f.journal.Append("worker_resume", "coordinator",
					fmt.Sprintf("worker %d released its pause", task))
				f.kick(task)
			case wire.TypePong:
				// Stamp above is the whole point.
			case wire.TypeStats:
				st, rerr := rd.ReadStats()
				if rerr != nil {
					readErrCh <- rerr
					return
				}
				statsCh <- st
				return
			default:
				readErrCh <- fmt.Errorf("remote: worker %d sent frame type %d", task, typ)
				return
			}
		}
	}()

	// Watchdog: sever the connection when both directions have been silent
	// past the timeout, or on cancellation. Closing the conn unblocks any
	// blocked read or write above and below.
	hbStop := make(chan struct{})
	var eofDrained atomic.Bool
	aw.Add(1)
	go func() {
		defer aw.Done()
		t := time.NewTicker(f.hbInterval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ctx.Done():
				conn.Close()
				return
			case <-t.C:
				if eofDrained.Load() {
					// Post-EOF the worker stops answering pings while it
					// drains and computes stats; only cancellation or a
					// transport error ends the wait from here.
					continue
				}
				last := lastIn.Load()
				if o := lastOut.Load(); o > last {
					last = o
				}
				if time.Duration(now()-last) > f.hbTimeout {
					conn.Close()
					return
				}
			}
		}
	}()
	defer func() {
		close(hbStop)
		conn.Close()
		aw.Wait()
	}()

	var ack resumeAck
	select {
	case ack = <-ackCh:
	case rerr := <-readErrCh:
		return false, rerr
	case <-ctx.Done():
		return false, fmt.Errorf("remote: %w", ctx.Err())
	}
	v4 := ack.v4

	// Handshake complete: locate the replay position and reset bookkeeping.
	f.st.mu.Lock()
	if f.st.epoch[task] != epoch {
		f.st.mu.Unlock()
		return false, errEpochChanged
	}
	f.st.rebuilt[task] = false
	log := f.st.logs[task]
	pos := sort.Search(len(log), func(i int) bool { return uint64(log[i].rec.ID) >= ack.next })
	if prev := f.st.sentPos[task]; prev > pos {
		n := uint64(prev - pos)
		f.replayed.Add(n)
		if f.met.replayed != nil {
			f.met.replayed.Add(n)
		}
	}
	f.st.mu.Unlock()
	if isReconnect {
		f.reconnects.Add(1)
		if f.met.reconnects != nil {
			f.met.reconnects.Inc()
		}
		if !failSince.IsZero() && f.met.recovery != nil {
			f.met.recovery.Observe(time.Since(failSince))
		}
		f.journal.Append("reconnect", "coordinator",
			fmt.Sprintf("worker %d reconnected, resuming from id %d", task, ack.next))
	}

	// drainReader parks until the reader goroutine is done after a write
	// failure: the worker may still be flushing results it has already
	// checkpointed as delivered, and abandoning them would break replay
	// exactness. The wait is bounded — the watchdog severs a silent
	// connection, which errors the reader out.
	drainReader := func() {
		eofDrained.Store(false) // rearm the watchdog to bound the wait
		select {
		case <-readErrCh:
		case <-statsCh:
		case <-ctx.Done():
		}
	}

	ping := time.NewTicker(f.hbInterval)
	defer ping.Stop()
	eofSent := false
	var credited uint64 // result credits granted on this connection
	toldPaused := false // coordinator-side pause state the worker was told
	for {
		f.st.mu.Lock()
		if f.st.epoch[task] != epoch {
			f.st.mu.Unlock()
			return true, errEpochChanged
		}
		log = f.st.logs[task]
		end := len(log)
		closed := f.st.closed
		f.st.mu.Unlock()

		// Result acknowledgements flow before anything else — and crucially
		// regardless of pause state, or a paused worker's unacked buffer
		// could never drain. The sync makes every credited result durable
		// whatever the WAL's background fsync policy says.
		if v4 && f.durable != nil {
			if d := resDurable.Load(); d > credited {
				if serr := f.durable.results.Sync(); serr != nil {
					drainReader()
					return true, fmt.Errorf("remote: results log sync: %w", serr)
				}
				if werr := w.WriteCredit(d - credited); werr != nil {
					drainReader()
					return true, fmt.Errorf("remote: credit to worker %d: %w", task, werr)
				}
				credited = d
			}
		}

		// Coordinator-side admission control: tell a v4 worker about pause
		// transitions so it can journal and relax its own pacing; the actual
		// gate is below and applies to any peer version.
		ctlPaused := f.ft.Control.Paused()
		if v4 && ctlPaused != toldPaused {
			var werr error
			if ctlPaused {
				werr = w.WritePause()
			} else {
				werr = w.WriteResume()
			}
			if werr != nil {
				drainReader()
				return true, fmt.Errorf("remote: pause/resume to worker %d: %w", task, werr)
			}
			toldPaused = ctlPaused
		}
		paused := ctlPaused || workerPaused.Load()

		if pos < end && !paused {
			n := end - pos
			if v4 {
				// Credit-gated: send at most what the worker granted. Out of
				// credit, park below until a Credit frame replenishes.
				if avail := recCredit.Load(); avail <= 0 {
					n = 0
				} else if int64(n) > avail {
					n = int(avail)
				}
			}
			if n > 0 {
				for _, e := range log[pos : pos+n] {
					if werr := w.WriteRecordTraced(e.store, false, e.rec, e.traceID, e.parentSpan); werr != nil {
						drainReader()
						return true, fmt.Errorf("remote: record to worker %d: %w", task, werr)
					}
				}
				if werr := w.Flush(); werr != nil {
					drainReader()
					return true, fmt.Errorf("remote: flush to worker %d: %w", task, werr)
				}
				f.tuples.Add(uint64(n))
				if v4 {
					recCredit.Add(-int64(n))
				}
				pos += n
				f.st.mu.Lock()
				if pos > f.st.sentPos[task] {
					f.st.sentPos[task] = pos
				}
				f.st.mu.Unlock()
				continue
			}
		}

		if closed && !eofSent && pos == end && !paused {
			// Flush while the watchdog still enforces the deadline, then
			// relax it: post-EOF stats can legitimately take a while with
			// nothing on the wire.
			if werr := w.Flush(); werr != nil {
				drainReader()
				return true, fmt.Errorf("remote: flush to worker %d: %w", task, werr)
			}
			eofDrained.Store(true)
			if werr := w.WriteEOF(); werr != nil {
				drainReader()
				return true, fmt.Errorf("remote: eof to worker %d: %w", task, werr)
			}
			eofSent = true
		}

		if eofSent {
			select {
			case st := <-statsCh:
				f.st.mu.Lock()
				if f.st.epoch[task] != epoch {
					f.st.mu.Unlock()
					return true, errEpochChanged
				}
				f.st.stats[task] = st
				f.st.finished[task] = true
				f.st.mu.Unlock()
				f.kickRun()
				return true, nil
			case rerr := <-readErrCh:
				return true, rerr
			case <-f.notify[task]:
				// Possibly an epoch bump; the loop re-checks.
			case <-ctx.Done():
				return true, fmt.Errorf("remote: %w", ctx.Err())
			}
			continue
		}

		select {
		case <-f.notify[task]:
		case rerr := <-readErrCh:
			return true, rerr
		case <-ping.C:
			if werr := w.WritePing(); werr != nil {
				drainReader()
				return true, fmt.Errorf("remote: ping to worker %d: %w", task, werr)
			}
		case <-ctx.Done():
			return true, fmt.Errorf("remote: %w", ctx.Err())
		}
	}
}

// declareDead marks worker task dead after its retry budget ran out. In
// degraded mode its log merges into the heir's and the partition
// rebalances; otherwise the run fails.
func (f *ftRunner) declareDead(task, failures int, cause error) {
	if f.met.dead != nil {
		f.met.dead.Add(1)
	}
	f.journal.Append("worker_dead", "coordinator",
		fmt.Sprintf("worker %d declared dead after %d attempts: %v", task, failures, cause))
	var (
		heir        int
		heirConn    io.Closer
		rescued     bool
		wasDegraded bool
	)
	f.st.mu.Lock()
	wasDegraded = f.st.degraded
	f.st.alive[task] = false
	f.st.deadList = append(f.st.deadList, task)
	if !f.canDegrade {
		why := "degraded mode off"
		if f.ft.Degraded {
			why = fmt.Sprintf("strategy %q cannot rebalance", f.sess.Strategy)
		}
		f.st.fatal = fmt.Errorf("remote: worker %d dead after %d attempts (%s): %w", task, failures, why, cause)
	} else if h, ok := partition.Heir(f.st.alive, task); !ok {
		f.st.fatal = fmt.Errorf("remote: all workers dead: %w", cause)
	} else if np, err := partition.Rebalance(partition.Partition{Bounds: f.origBounds}, f.st.alive); err != nil {
		f.st.fatal = fmt.Errorf("remote: rebalancing after worker %d death: %w", task, err)
	} else {
		heir, rescued = h, true
		f.st.bounds = np.Bounds
		f.st.strat = dispatch.NewLengthBased(f.sess.Params, np)
		f.st.logs[heir] = mergeFTLogs(f.st.logs[heir], f.st.logs[task])
		f.st.logs[task] = nil
		f.st.sentPos[heir] = 0
		f.st.rebuilt[heir] = true
		f.st.epoch[heir]++
		f.st.finished[heir] = false
		f.st.degraded = true
		heirConn = f.st.conns[heir]
	}
	f.st.mu.Unlock()
	if !rescued {
		f.cancel()
		f.kickRun()
		return
	}
	if !wasDegraded {
		f.journal.Append("degraded", "coordinator",
			"entering degraded mode: continuing on survivors with rebalanced ranges")
	}
	f.journal.Append("rebalance", "coordinator",
		fmt.Sprintf("worker %d ranges rebalanced onto heir %d, heir log rebuilt", task, heir))
	if f.durable != nil {
		// Manifest keeps the launch hello (plan hash must stay stable) but
		// records the rebalanced bounds for status tooling.
		if merr := f.saveManifest(); merr != nil {
			f.journal.Append("manifest_error", "coordinator",
				fmt.Sprintf("manifest save after rebalance failed: %v", merr))
		}
	}
	if heirConn != nil {
		// Interrupt the heir's in-flight attempt; its manager reconnects
		// with the rebuilt log without charging the retry budget.
		heirConn.Close()
	}
	f.kick(heir)
	f.kickRun()
}

// mergeFTLogs merges two ID-sorted replay logs. A record present in both
// (routed to both workers pre-death) keeps a single entry whose store flag
// is the OR — it must be stored if either owner would have stored it.
func mergeFTLogs(a, b []ftEntry) []ftEntry {
	out := make([]ftEntry, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].rec.ID == b[j].rec.ID:
			e := a[i] // keeps a's trace annotation, if any
			e.store = a[i].store || b[j].store
			out = append(out, e)
			i++
			j++
		case a[i].rec.ID < b[j].rec.ID:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
