// Package topology assembles the distributed streaming set-similarity join:
// a source spout replaying the record stream, a dispatcher bolt applying a
// distribution strategy, worker bolts hosting local joiners, and a sink
// collecting result pairs and latency. It is the glue between the stream
// engine substrate and the join algorithms, and the unit the experiment
// harness runs.
package topology

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/bundle"
	"repro/internal/checkpoint"
	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/reorder"
	"repro/internal/stream"
	"repro/internal/window"
)

// RecTuple carries one record from source through dispatcher to workers.
// Enq is the ingestion wall-clock time used for latency measurement; Right
// marks the record's stream side in two-stream (R⋈S) runs and is always
// false for self-joins.
type RecTuple struct {
	Rec   *record.Record
	Enq   time.Time
	Right bool
	// Trace is non-nil on the 1-in-N tuples the run's Tracer sampled; each
	// stage appends its span to it. Nil on the unsampled fast path.
	Trace *obs.Trace
}

// SizeBytes approximates the wire size: record header (id + time + length)
// plus 4 bytes per token.
func (t *RecTuple) SizeBytes() int { return 24 + 4*len(t.Rec.Tokens) }

// recSlab hands out RecTuples in chunks so spouts pay one allocation per
// chunk instead of one interface-boxing allocation per record. Tuples are
// never recycled — a chunk is garbage once its last tuple is processed —
// so the slab needs no synchronization beyond the single spout goroutine.
type recSlab struct {
	chunk []RecTuple
}

const recSlabChunk = 256

func (s *recSlab) get() *RecTuple {
	if len(s.chunk) == 0 {
		s.chunk = make([]RecTuple, recSlabChunk)
	}
	rt := &s.chunk[0]
	s.chunk = s.chunk[1:]
	return rt
}

// ResultTuple is a result block: every verified join pair one worker
// produced while executing one input batch (or one direct Execute call), in
// emission order. Blocks travel as pointers recycled through resultPool: the
// worker fills one per input batch and ships it once, the sink reads it and
// returns it, so the result path pays one pool round trip and one transport
// tuple per batch instead of one per pair.
type ResultTuple struct {
	Pairs []record.Pair
	// traced lists the pairs of the block whose lineage was sampled, so
	// the sink can close each with a deliver span. Empty on the unsampled
	// fast path.
	traced []tracedPair
}

// tracedPair is the sampled lineage (if any) of one pair in a block: the
// trace and the worker's verify span the sink's deliver span hangs off.
type tracedPair struct {
	trace  *obs.Trace
	parent int
}

// SizeBytes implements stream.Tuple: 24 bytes per pair, so worker→sink
// edge bytes are those of shipping each pair on its own.
func (rt *ResultTuple) SizeBytes() int { return 24 * len(rt.Pairs) }

// maxPooledPairs caps the pair capacity a recycled block keeps: a block
// that grew past it (a batch of very match-heavy records) returns to the
// pool without its slice, so one burst does not pin its peak size for the
// rest of the run.
const maxPooledPairs = 1024

// reset empties the block for reuse. Trace references are cleared so
// recycled blocks do not keep sampled lineages alive.
func (rt *ResultTuple) reset() {
	if cap(rt.Pairs) > maxPooledPairs {
		rt.Pairs = nil
	} else {
		rt.Pairs = rt.Pairs[:0]
	}
	clear(rt.traced)
	rt.traced = rt.traced[:0]
}

// resultPool recycles result blocks between the worker bolts (Get) and the
// sink (Put). sync.Pool is internally synchronized, so concurrent workers
// and the sink need no further locking.
var resultPool = sync.Pool{New: func() interface{} { return new(ResultTuple) }}

// Config specifies one join topology run.
type Config struct {
	// Workers is the joiner parallelism (required, >= 1).
	Workers int
	// Strategy distributes records to workers (required).
	Strategy dispatch.Strategy
	// Algorithm selects the local joiner (default Prefix).
	Algorithm local.Algorithm
	// Params are the join function and threshold (required).
	Params filter.Params
	// Window bounds join partners (default unbounded).
	Window window.Policy
	// Bundle tunes the Bundled algorithm.
	Bundle bundle.Config
	// QueueCap is the per-task queue capacity in transport batches
	// (default: enough batches to buffer ~1024 tuples).
	QueueCap int
	// BatchSize is the transport micro-batch size: tuples accumulated per
	// destination before a channel send (default 64; 1 disables batching).
	// It batches the dispatcher→worker edges. Results are not batched by
	// it: each worker gathers the pairs of one input batch into a single
	// result block and ships that block to the sink at once.
	BatchSize int
	// CollectPairs keeps every result pair in memory (tests and small
	// runs); otherwise the sink only counts.
	CollectPairs bool
	// WireNsPerByte simulates cluster network cost: every worker burns
	// this many nanoseconds of CPU per received tuple byte before
	// processing it, modelling deserialization and NIC work that loopback
	// channels skip. Zero (default) disables the simulation; see
	// EXPERIMENTS.md E16 for calibration guidance.
	WireNsPerByte int
	// Parallelism sizes each worker's verifier pool: P-1 helper goroutines
	// per worker task fan candidate-bundle verification out across cores,
	// with results merged back in deterministic order so any P produces
	// the byte-identical result stream of a sequential run (Bundled
	// algorithm only; see bundle.ProbePar). 0 or 1 keeps workers strictly
	// single-threaded. Note the total goroutine budget is
	// Workers × Parallelism.
	Parallelism int
	// Dispatchers parallelizes the routing stage (default 1). With more
	// than one dispatcher, records can reach a worker slightly out of
	// order; each worker then runs a watermark reorder buffer whose slack
	// covers the maximum in-flight skew (Dispatchers × queue capacity), so
	// join semantics are unchanged. Result.LateDrops reports records that
	// exceeded even that slack (0 in practice).
	Dispatchers int
	// Registry, when set, receives the run's live metrics: engine edge and
	// task series plus per-worker record latency and joiner statistics.
	Registry *obs.Registry
	// Tracer, when set and enabled, samples tuple lineages end to end
	// (emit → dispatch → queue → process/verify → deliver).
	Tracer *obs.Tracer
	// Journal, when set, receives run lifecycle events from the stream
	// engine (run_start/run_end). Nil keeps the run silent.
	Journal *obs.Journal
	// Checkpoint captures every worker's window state at stream end into
	// Result.Checkpoints, one serialized checkpoint per task. Self-join
	// runs only.
	Checkpoint bool
	// Restore seeds worker joiners from a prior run's Result.Checkpoints
	// (one entry per task, in task order; empty entries start fresh). The
	// restoring run must use the same Workers, Strategy, Algorithm, Params,
	// Window and Bundle configuration, and its records must continue the
	// ID/time sequence of the checkpointed stream. Self-join runs only.
	Restore [][]byte
}

func (c Config) validate() error {
	if c.Workers < 1 {
		return fmt.Errorf("topology: Workers must be >= 1, got %d", c.Workers)
	}
	if c.Strategy == nil {
		return fmt.Errorf("topology: Strategy is required")
	}
	if c.Params.Threshold <= 0 {
		return fmt.Errorf("topology: Params.Threshold must be positive")
	}
	return nil
}

// Result summarizes one completed run.
type Result struct {
	// Results is the number of verified pairs emitted.
	Results uint64
	// Pairs holds the result pairs when Config.CollectPairs was set.
	Pairs []record.Pair
	// Records is the number of source records processed.
	Records uint64
	// Elapsed is the topology wall time; Throughput derives from it.
	Elapsed time.Duration
	// CommTuples and CommBytes count dispatcher→worker traffic — the
	// simulated network cost of the distribution strategy.
	CommTuples, CommBytes uint64
	// StoredCopies sums records indexed across workers (replication).
	StoredCopies uint64
	// WorkerCosts are per-worker join work counters, for load analysis.
	WorkerCosts []local.Cost
	// Latency aggregates per-record processing latency across workers
	// (enqueue at source to completion of the record's probe).
	Latency metrics.Latency
	// LateDrops counts records that arrived at a worker beyond the reorder
	// slack (only possible with Dispatchers > 1; expected 0).
	LateDrops uint64
	// Report is the raw engine report.
	Report *stream.Report
	// Checkpoints holds each worker's serialized window state when
	// Config.Checkpoint was set (index = task). Feed it to a later run's
	// Config.Restore to continue the stream where this run stopped.
	Checkpoints [][]byte
}

// Throughput returns the end-to-end record rate.
func (r *Result) Throughput() metrics.Throughput {
	return metrics.Throughput{Records: r.Records, Elapsed: r.Elapsed}
}

// sourceSpout replays a slice of records, stamping ingestion time. When a
// tracer is attached it asks for a sample per record: the unsampled path is
// one atomic add, the sampled one starts the tuple's lineage with an emit
// span.
type sourceSpout struct {
	recs   []*record.Record
	i      int
	tracer *obs.Tracer
	slab   recSlab
}

// Next implements stream.Spout.
func (s *sourceSpout) Next() (stream.Tuple, bool) {
	if s.i >= len(s.recs) {
		return nil, false
	}
	r := s.recs[s.i]
	s.i++
	rt := s.slab.get()
	rt.Rec, rt.Enq = r, time.Now()
	if tr := s.tracer.Sample(); tr != nil {
		tr.Append("emit", "source", 0, -1, rt.Enq, rt.Enq)
		rt.Trace = tr
	}
	return rt, true
}

// BiRecord tags a record with its stream side for two-stream joins.
type BiRecord struct {
	Rec   *record.Record
	Right bool
}

// biSourceSpout replays a two-sided stream.
type biSourceSpout struct {
	recs   []BiRecord
	i      int
	tracer *obs.Tracer
	slab   recSlab
}

// Next implements stream.Spout.
func (s *biSourceSpout) Next() (stream.Tuple, bool) {
	if s.i >= len(s.recs) {
		return nil, false
	}
	br := s.recs[s.i]
	s.i++
	rt := s.slab.get()
	rt.Rec, rt.Enq, rt.Right = br.Rec, time.Now(), br.Right
	if tr := s.tracer.Sample(); tr != nil {
		tr.Append("emit", "source", 0, -1, rt.Enq, rt.Enq)
		rt.Trace = tr
	}
	return rt, true
}

// dispatcherBolt forwards records; routing happens in the grouping between
// dispatcher and workers, mirroring how Storm topologies separate the
// routing decision (grouping) from operator logic. traced gates the
// per-tuple type assertion so untraced runs forward with zero overhead.
type dispatcherBolt struct {
	task   int
	traced bool
}

// Execute implements stream.Bolt.
func (d dispatcherBolt) Execute(t stream.Tuple, em stream.Emitter) {
	if d.traced {
		if rt, ok := t.(*RecTuple); ok && rt.Trace != nil {
			parent, prev := rt.Trace.Tail()
			rt.Trace.Append("dispatch", "dispatcher", d.task, parent, prev, time.Now())
		}
	}
	em.Emit(t)
}

// workerBolt hosts one local joiner and applies the strategy's store and
// emit arbitration.
type workerBolt struct {
	task   int
	k      int
	strat  dispatch.Strategy
	joiner local.Joiner
	lat    metrics.Latency
	// slat replaces lat on instrumented runs so scrapes can snapshot the
	// histogram while the worker goroutine observes.
	slat      *metrics.SyncLatency
	stored    uint64
	results   uint64
	wirePerB  int
	wireBurnt time.Duration
	// reorder restores arrival order under parallel dispatchers
	// (nil when Dispatchers == 1).
	reorder *reorder.Buffer[*RecTuple]
	// bi replaces joiner in two-stream runs.
	bi *local.BiJoiner
	// emitFn is the per-match callback handed to the joiner, bound once at
	// construction; cur* carry the record under probe so the hot path does
	// not allocate a fresh closure per record. Bolts run single-threaded,
	// so the fields need no locking.
	emitFn       func(local.Match)
	curRec       *record.Record
	curTrace     *obs.Trace
	curQueueSpan int
	// block gathers the pairs of the current input batch; nil until the
	// batch's first result.
	block *ResultTuple
}

// burn spins the CPU for roughly d, standing in for per-tuple network and
// deserialization work on a real cluster.
func burn(d time.Duration) {
	if d <= 0 {
		return
	}
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

// Execute implements stream.Bolt: probe (always), store when the strategy
// assigns the record here, and emit deduplicated results. With parallel
// dispatchers the record first passes the reorder buffer so the joiner
// always sees nondecreasing sequence numbers. Called on its own, outside a
// batch, it ships the record's results as one block.
func (w *workerBolt) Execute(t stream.Tuple, em stream.Emitter) {
	w.execute(t)
	w.ship(em)
}

// ExecuteBatch implements stream.BatchBolt: a whole transport batch of
// records streams through the worker in one call, in order, and their
// results ship to the sink as one block after the batch. This is the
// engine→pool handoff: the verifier pool sees back-to-back records
// without a per-tuple trip through the executor loop, so its helpers
// stay warm across a batch.
func (w *workerBolt) ExecuteBatch(ts []stream.Tuple, em stream.Emitter) {
	for _, t := range ts {
		w.execute(t)
	}
	w.ship(em)
}

// Flush drains the reorder buffer at stream end and ships what it
// produced.
func (w *workerBolt) Flush(em stream.Emitter) {
	if w.reorder != nil {
		w.reorder.Flush(w.process)
	}
	w.ship(em)
}

func (w *workerBolt) execute(t stream.Tuple) {
	rt := t.(*RecTuple)
	if w.wirePerB > 0 {
		d := time.Duration(w.wirePerB * rt.SizeBytes())
		burn(d)
		w.wireBurnt += d
	}
	if w.reorder != nil {
		w.reorder.Push(rt, w.process)
		return
	}
	w.process(rt)
}

// ship emits the current result block, if it holds any pair.
func (w *workerBolt) ship(em stream.Emitter) {
	if w.block == nil {
		return
	}
	em.Emit(w.block)
	w.block = nil
}

// emitMatch is the joiner's per-match callback: strategy arbitration, then
// the pair joins the worker's current result block. It reads the record
// under probe from the cur* fields process() binds, so the same bound
// method value serves every record without a per-record closure
// allocation.
func (w *workerBolt) emitMatch(m local.Match) {
	if !w.strat.Emits(w.curRec, m.Rec, w.task, w.k) {
		return
	}
	w.results++
	b := w.block
	if b == nil {
		b = resultPool.Get().(*ResultTuple)
		w.block = b
	}
	b.Pairs = append(b.Pairs, record.NewPair(w.curRec.ID, m.Rec.ID, m.Sim))
	if w.curTrace != nil {
		now := time.Now()
		span := w.curTrace.Append("verify", "worker", w.task, w.curQueueSpan, now, now)
		b.traced = append(b.traced, tracedPair{trace: w.curTrace, parent: span})
	}
}

func (w *workerBolt) process(rt *RecTuple) {
	r := rt.Rec
	store := w.strat.Stores(r, w.task, w.k)
	if store {
		w.stored++
	}
	// For a sampled tuple, close the queue span (source/dispatch emit to
	// worker receipt) before the join so the verify spans can hang off it.
	queueSpan := -1
	var pstart time.Time
	if rt.Trace != nil {
		parent, prev := rt.Trace.Tail()
		pstart = time.Now()
		queueSpan = rt.Trace.Append("queue", "worker", w.task, parent, prev, pstart)
	}
	w.curRec, w.curTrace, w.curQueueSpan = r, rt.Trace, queueSpan
	if w.bi != nil {
		w.bi.StepSide(r, rt.Right, store, w.emitFn)
	} else {
		w.joiner.Step(r, store, w.emitFn)
	}
	if rt.Trace != nil {
		rt.Trace.Append("process", "worker", w.task, queueSpan, pstart, time.Now())
	}
	if w.slat != nil {
		w.slat.Observe(time.Since(rt.Enq))
	} else {
		w.lat.Observe(time.Since(rt.Enq))
	}
}

// registerJoinerMetrics publishes the worker's joiner statistics to reg.
// Only the Bundled joiner has live counters; other joiners are covered by
// the engine-level task series.
func (w *workerBolt) registerJoinerMetrics(reg *obs.Registry, task int) {
	type livePublisher interface {
		PublishLive(*bundle.LiveStats)
	}
	lp, ok := w.joiner.(livePublisher)
	if !ok {
		return
	}
	ls := &bundle.LiveStats{}
	lp.PublishLive(ls)
	label := fmt.Sprintf("worker/%d", task)
	reg.CounterVec("bundle_records_total",
		"Records processed by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { return float64(ls.Records.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("bundle_candidates_total",
		"Candidate members examined by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { return float64(ls.Candidates.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("bundle_verified_total",
		"Candidates fully verified by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { return float64(ls.Verified.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("bundle_results_total",
		"Matches emitted by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { return float64(ls.Results.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.GaugeVec("bundle_live_members",
		"Records currently indexed by a worker's bundle index.", "task").
		SetFunc(label, func() float64 { return float64(ls.Members.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.GaugeVec("bundle_verify_hit_rate",
		"Fraction of verified candidates that produced a result.", "task").
		SetFunc(label, func() float64 { // obscheck: bounded — one series per worker task, capped by worker count
			v := ls.Verified.Load()
			if v == 0 {
				return 0
			}
			return float64(ls.Results.Load()) / float64(v)
		})
	reg.CounterVec("verify_kernel_linear_total",
		"Verification merges run by the linear intersection kernel.", "task").
		SetFunc(label, func() float64 { return float64(ls.KernelLinear.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_kernel_gallop_total",
		"Verification merges run by the galloping intersection kernel.", "task").
		SetFunc(label, func() float64 { return float64(ls.KernelGallop.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_kernel_bitset_total",
		"Verification merges run by the word-packed bitset kernel.", "task").
		SetFunc(label, func() float64 { return float64(ls.KernelBitset.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_candidates_pruned_total",
		"Candidates discarded by upper-bound checks before any kernel ran.", "task").
		SetFunc(label, func() float64 { return float64(ls.Pruned.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_tree_probes_total",
		"Probes answered by the filter-and-verification tree (tree/auto verify mode).", "task").
		SetFunc(label, func() float64 { return float64(ls.TreeProbes.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_tree_nodes_visited_total",
		"Tree nodes expanded while answering tree-mode probes.", "task").
		SetFunc(label, func() float64 { return float64(ls.TreeNodesVisited.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_tree_subtrees_pruned_total",
		"Whole subtrees discarded by tree-node filters before any member was touched.", "task").
		SetFunc(label, func() float64 { return float64(ls.TreeSubtreesPruned.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_tree_cands_avoided_total",
		"Candidate members never materialized thanks to tree-level pruning.", "task").
		SetFunc(label, func() float64 { return float64(ls.TreeCandsAvoided.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.GaugeVec("verify_tree_nodes",
		"Nodes currently in the filter-and-verification tree.", "task").
		SetFunc(label, func() float64 { return float64(ls.TreeNodes.Load()) }) // obscheck: bounded — one series per worker task, capped by worker count
}

// registerPoolMetrics publishes the worker's verifier-pool counters to
// reg: pool size, fanned vs serial probe rounds, idle helper wakeups, and
// per-context verified-candidate counts (the per-core work distribution).
// Only present when the joiner runs a parallel verifier pool.
func (w *workerBolt) registerPoolMetrics(reg *obs.Registry, task int) {
	type pooled interface {
		VerifyPool() *bundle.Pool
	}
	pj, ok := w.joiner.(pooled)
	if !ok {
		return
	}
	pool := pj.VerifyPool()
	if pool == nil {
		return
	}
	label := fmt.Sprintf("worker/%d", task)
	reg.GaugeVec("verify_pool_size",
		"Verifier pool parallelism of a worker task (helpers + caller).", "task").
		SetFunc(label, func() float64 { return float64(pool.Size()) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_pool_parallel_rounds_total",
		"Probes whose candidate verification was fanned across the pool.", "task").
		SetFunc(label, func() float64 { return float64(pool.Snapshot().RoundsParallel) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_pool_serial_rounds_total",
		"Probes kept on the calling goroutine (below the fanout cutoff).", "task").
		SetFunc(label, func() float64 { return float64(pool.Snapshot().RoundsSerial) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_pool_fanned_candidates_total",
		"Candidate bundles verified in fanned rounds.", "task").
		SetFunc(label, func() float64 { return float64(pool.Snapshot().Fanned) }) // obscheck: bounded — one series per worker task, capped by worker count
	reg.CounterVec("verify_pool_idle_stints_total",
		"Helper wakeups that found the candidate cursor already drained.", "task").
		SetFunc(label, func() float64 { return float64(pool.Snapshot().IdleStints) }) // obscheck: bounded — one series per worker task, capped by worker count
	verified := reg.CounterVec("verify_pool_ctx_verified_total",
		"Candidate bundles verified by one verifier context of a worker's pool.", "ctx")
	for i := 0; i < pool.Size(); i++ {
		i := i
		verified.SetFunc(fmt.Sprintf("%s/ctx/%d", label, i), // obscheck: bounded — one series per verifier context, capped by pool size
			func() float64 { return float64(pool.CtxVerified(i)) })
	}
}

// sinkBolt counts (and optionally keeps) result pairs.
type sinkBolt struct {
	collect bool
	count   uint64
	pairs   []record.Pair
}

// Execute implements stream.Bolt: read the block's pairs in order, then
// recycle the block. Traced pairs get their terminal deliver span; reset
// clears the trace references before pooling so recycled blocks do not
// resurrect lineages.
func (s *sinkBolt) Execute(t stream.Tuple, _ stream.Emitter) {
	rt := t.(*ResultTuple)
	s.count += uint64(len(rt.Pairs))
	if s.collect {
		s.pairs = append(s.pairs, rt.Pairs...)
	}
	if len(rt.traced) > 0 {
		now := time.Now()
		for _, tp := range rt.traced {
			tp.trace.Append("deliver", "sink", 0, tp.parent, now, now)
		}
	}
	rt.reset()
	resultPool.Put(rt)
}

// Run executes one self-join over the record slice and returns the
// summary.
func Run(recs []*record.Record, cfg Config) (*Result, error) {
	// The checkpoint cursor continues the stream's own stamping: the next
	// run's records follow the last ID and tick this run consumed.
	var cur checkpoint.Cursor
	if n := len(recs); n > 0 {
		cur = checkpoint.Cursor{NextID: uint64(recs[n-1].ID) + 1, NextTime: recs[n-1].Time + 1}
	}
	return run(cfg, uint64(len(recs)), func(int) stream.Spout {
		return &sourceSpout{recs: recs, tracer: cfg.Tracer}
	}, false, cur)
}

// RunBi executes one two-stream (R⋈S) join over the side-tagged stream:
// each record matches only stored records of the opposite side. Record IDs
// must be globally increasing in arrival order, exactly as for Run.
func RunBi(recs []BiRecord, cfg Config) (*Result, error) {
	return run(cfg, uint64(len(recs)), func(int) stream.Spout {
		return &biSourceSpout{recs: recs, tracer: cfg.Tracer}
	}, true, checkpoint.Cursor{})
}

func run(cfg Config, nrecs uint64, spoutF func(int) stream.Spout, bi bool, cur checkpoint.Cursor) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if bi && (cfg.Checkpoint || len(cfg.Restore) > 0) {
		return nil, fmt.Errorf("topology: Checkpoint/Restore support self-join runs only")
	}
	if cfg.Window == nil {
		cfg.Window = window.Unbounded{}
	}

	if cfg.Dispatchers < 1 {
		cfg.Dispatchers = 1
	}
	batchSize := cfg.BatchSize
	if batchSize <= 0 {
		batchSize = stream.DefaultBatchSize
	}
	// Queue capacity counts batches; the default keeps the buffered-tuple
	// budget (~1024 per queue) of the unbatched engine.
	queueCap := cfg.QueueCap
	if queueCap <= 0 {
		queueCap = (1024 + batchSize - 1) / batchSize
		if queueCap < 4 {
			queueCap = 4
		}
	}

	streamOpts := []stream.Option{stream.WithBatchSize(batchSize)}
	if cfg.Registry != nil {
		streamOpts = append(streamOpts, stream.WithRegistry(cfg.Registry))
	}
	if cfg.Journal != nil {
		streamOpts = append(streamOpts, stream.WithJournal(cfg.Journal))
	}
	tp := stream.New("ssjoin-"+cfg.Strategy.Name(), queueCap, streamOpts...)
	tp.AddSpout("source", spoutF, 1)
	traced := cfg.Tracer.Enabled()
	tp.AddBolt("dispatcher", func(task int) stream.Bolt {
		return dispatcherBolt{task: task, traced: traced}
	}, cfg.Dispatchers).SubscribeTo("source", stream.Shuffle{})

	k := cfg.Workers
	jopts := local.Options{
		Params:      cfg.Params,
		Window:      cfg.Window,
		Bundle:      cfg.Bundle,
		Parallelism: cfg.Parallelism,
	}
	// Parallel joiners own helper goroutines; every joiner the run creates
	// is released on the way out, error paths included. Bolt factories run
	// serially during materialization, so the append needs no lock.
	var owned []interface{ Close() error }
	defer func() {
		for _, c := range owned {
			c.Close()
		}
	}()
	// Restore happens before topology construction so a corrupt checkpoint
	// fails the run cleanly instead of inside a bolt factory.
	var restored []local.Joiner
	if len(cfg.Restore) > 0 {
		if len(cfg.Restore) != k {
			return nil, fmt.Errorf("topology: Restore has %d checkpoints for %d workers", len(cfg.Restore), k)
		}
		restored = make([]local.Joiner, k)
		for i, b := range cfg.Restore {
			j := local.New(cfg.Algorithm, jopts)
			if c, ok := j.(interface{ Close() error }); ok {
				owned = append(owned, c)
			}
			if len(b) > 0 {
				if _, _, err := checkpoint.Read(bytes.NewReader(b), j); err != nil {
					return nil, fmt.Errorf("topology: restoring worker %d: %w", i, err)
				}
			}
			restored[i] = j
		}
	}
	routeGrouping := stream.PartitionFunc(func(t stream.Tuple, n int, buf []int) []int {
		return cfg.Strategy.Route(t.(*RecTuple).Rec, n, buf)
	})
	// With one dispatcher arrival order is FIFO end to end; with several,
	// skew is bounded by what can be in flight across dispatcher paths:
	// each dispatcher can hold queueCap input batches plus one pending
	// output batch per worker edge, all in units of batchSize tuples.
	var slack uint64
	if cfg.Dispatchers > 1 {
		perDispatcher := uint64(queueCap+k+2) * uint64(batchSize)
		slack = uint64(cfg.Dispatchers)*perDispatcher + 64
	}
	tp.AddBolt("worker", func(task int) stream.Bolt {
		w := &workerBolt{
			task:     task,
			k:        k,
			strat:    cfg.Strategy,
			wirePerB: cfg.WireNsPerByte,
		}
		w.emitFn = w.emitMatch
		switch {
		case bi:
			w.bi = local.NewBi(cfg.Algorithm, jopts)
			owned = append(owned, w.bi)
		case restored != nil:
			w.joiner = restored[task]
		default:
			w.joiner = local.New(cfg.Algorithm, jopts)
			if c, ok := w.joiner.(interface{ Close() error }); ok {
				owned = append(owned, c)
			}
		}
		if slack > 0 {
			w.reorder = reorder.New(slack, func(rt *RecTuple) uint64 { return uint64(rt.Rec.ID) })
		}
		if cfg.Registry != nil {
			w.slat = &metrics.SyncLatency{}
			cfg.Registry.HistogramVec("worker_record_seconds",
				"Per-record latency observed at a worker: source enqueue to probe completion.", "task").
				SetFunc(fmt.Sprintf("worker/%d", task), w.slat.Snapshot) // obscheck: bounded — one series per worker task, capped by worker count
			w.registerJoinerMetrics(cfg.Registry, task)
			w.registerPoolMetrics(cfg.Registry, task)
		}
		return w
	}, k).SubscribeTo("dispatcher", routeGrouping)

	// Result blocks are already batches (one per worker input batch), so
	// the sink edge ships each on its own: no result waits behind later
	// blocks for a transport batch to fill.
	tp.AddBolt("sink", func(int) stream.Bolt {
		return &sinkBolt{collect: cfg.CollectPairs}
	}, 1).SubscribeToUnbatched("worker", stream.Shuffle{})

	rep, err := tp.Run()
	if err != nil {
		return nil, err
	}

	res := &Result{
		Records: nrecs,
		Elapsed: rep.Elapsed,
		Report:  rep,
	}
	res.CommTuples = rep.EdgeTuples("dispatcher", "worker")
	if e, ok := rep.Edges[stream.EdgeKey{From: "dispatcher", To: "worker"}]; ok {
		res.CommBytes = e.Bytes.Load()
	}
	if cfg.Checkpoint {
		res.Checkpoints = make([][]byte, k)
	}
	for i, b := range rep.Bolts["worker"] {
		w := b.(*workerBolt)
		if cfg.Checkpoint {
			var buf bytes.Buffer
			if err := checkpoint.Write(&buf, cur, w.joiner); err != nil {
				return nil, fmt.Errorf("topology: checkpointing worker %d: %w", i, err)
			}
			res.Checkpoints[i] = buf.Bytes()
		}
		if w.bi != nil {
			cl, cr := w.bi.CostLeft(), w.bi.CostRight()
			res.WorkerCosts = append(res.WorkerCosts, local.Cost{
				Probes:      cl.Probes + cr.Probes,
				Stored:      cl.Stored + cr.Stored,
				Scanned:     cl.Scanned + cr.Scanned,
				Candidates:  cl.Candidates + cr.Candidates,
				Verified:    cl.Verified + cr.Verified,
				Results:     cl.Results + cr.Results,
				VerifySteps: cl.VerifySteps + cr.VerifySteps,
				Postings:    cl.Postings + cr.Postings,
			})
		} else {
			res.WorkerCosts = append(res.WorkerCosts, w.joiner.Cost())
		}
		res.StoredCopies += w.stored
		if w.slat != nil {
			snap := w.slat.Snapshot()
			res.Latency.Merge(&snap)
		} else {
			res.Latency.Merge(&w.lat)
		}
		if w.reorder != nil {
			res.LateDrops += w.reorder.Late()
		}
	}
	for _, b := range rep.Bolts["sink"] {
		s := b.(*sinkBolt)
		res.Results += s.count
		res.Pairs = append(res.Pairs, s.pairs...)
	}
	return res, nil
}
