package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bundle"
	"repro/internal/checkpoint"
	"repro/internal/dispatch"
	"repro/internal/local"
	"repro/internal/partition"
	"repro/internal/record"
	"repro/internal/stream"
	"repro/internal/tokens"
	"repro/internal/window"
	"repro/internal/wire"
)

// Span names, indexed by span.name. The first is the replay loop's own
// per-record span, the parent of every per-record layer span.
const (
	spRecord uint8 = iota
	spFromText
	spRoute
	spEncode
	spDecode
	spEvict
	spProbe
	spInsert
	spRestore
	spPartition
)

var spanNames = []string{
	"replay.record", "record.FromText", "dispatch.Route", "wire.WriteRecord",
	"wire.ReadRecord", "bundle.Evict", "bundle.Probe", "bundle.Insert",
	"checkpoint.Read", "partition.Build",
}

// noRecord marks spans that belong to no record (restore, partition).
const noRecord = ^uint32(0)

// span is one timed call. Times are nanoseconds since the recorder's origin.
type span struct {
	start, end int64
	parent     int32
	rec        uint32
	name       uint8
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *recorder) begin(name uint8, parent int32, rec uint32) int32 {
	t.spans = append(t.spans, span{start: int64(time.Since(t.origin)), parent: parent, rec: rec, name: name})
	return int32(len(t.spans) - 1)
}

func (t *recorder) end(i int32) { t.spans[i].end = int64(time.Since(t.origin)) }

// selfTimes returns, per span name, the summed self time (duration minus
// the time covered by child spans) and the call count.
func (t *recorder) selfTimes() (self []time.Duration, calls []int) {
	self = make([]time.Duration, len(spanNames))
	calls = make([]int, len(spanNames))
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		self[s.name] += time.Duration(s.end - s.start - child[i])
		calls[s.name]++
	}
	return self, calls
}

// write dumps the spans as a little-endian binary file: a header line
// naming the span kinds, then one 25-byte entry per span: start ns, end
// ns, parent index (-1 for none), record index, name index.
func (t *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "perfbench-spans v1 %q\n", spanNames)
	var b [25]byte
	for _, s := range t.spans {
		binary.LittleEndian.PutUint64(b[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(b[8:], uint64(s.end))
		binary.LittleEndian.PutUint32(b[16:], uint32(s.parent))
		binary.LittleEndian.PutUint32(b[20:], s.rec)
		b[24] = s.name
		if _, err := w.Write(b[:]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// indexJoiner lets checkpoint.Read rebuild a window into a bare bundle
// index; Load probes for the best bundle and inserts, as the library's
// bundled joiner does.
type indexJoiner struct{ bx *bundle.Index }

func (j indexJoiner) Load(r *record.Record) {
	best, _ := j.bx.Probe(r, func(bundle.Match) {})
	j.bx.Insert(r, best)
}

func (j indexJoiner) Step(r *record.Record, store bool, emit func(local.Match)) {
	j.bx.Evict(r.ID, r.Time)
	best, _ := j.bx.Probe(r, func(m bundle.Match) { emit(local.Match{Rec: m.Rec, Overlap: m.Overlap, Sim: m.Sim}) })
	if store {
		j.bx.Insert(r, best)
	}
}

func (j indexJoiner) Size() int                            { return int(j.bx.Stats().LiveMembers) }
func (j indexJoiner) Cost() local.Cost                     { return local.Cost{} }
func (j indexJoiner) Name() string                         { return "bundle" }
func (j indexJoiner) Dump(visit func(*record.Record) bool) { j.bx.Dump(visit) }

// replay is what a traced replay measured.
type replay struct {
	ans       answer
	wall      time.Duration // the per-record loop
	restore   time.Duration
	partition time.Duration
	predicted float64
	before    []bundle.Stats // per worker, after restore
	after     []bundle.Stats
	probes    uint64 // Evict/Probe pairs, one per target worker
	stored    uint64
	tokens    uint64
	wireBytes uint64
}

func (in *inputs) newIndex() *bundle.Index {
	return bundle.New(in.spec.params(), window.Count{N: in.spec.window}, in.bcfg)
}

// textMagic is the header ssjoin.TextStream.WriteSnapshot writes before the
// dictionary, the ordering and the window checkpoint.
var textMagic = []byte("SSJTXT\x01")

// replayText runs the sequence TextStream.Add runs (tokenize and rank,
// then evict, probe and insert on the bundle index) with a span around
// each call.
func replayText(in *inputs, tr *recorder) (*replay, error) {
	rp := &replay{}
	sp := tr.begin(spRestore, -1, noRecord)
	br := bufio.NewReader(bytes.NewReader(in.textSnap))
	magic := make([]byte, len(textMagic))
	if _, err := io.ReadFull(br, magic); err != nil || !bytes.Equal(magic, textMagic) {
		return nil, fmt.Errorf("text snapshot has no text-stream header")
	}
	dict, err := tokens.LoadDictionary(br)
	if err != nil {
		return nil, err
	}
	order, err := tokens.LoadOrdering(br, dict)
	if err != nil {
		return nil, err
	}
	bx := in.newIndex()
	cur, _, err := checkpoint.Read(br, indexJoiner{bx})
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	rp.restore = time.Duration(tr.spans[sp].end - tr.spans[sp].start)
	b := record.NewBuilder(dict, order, tokens.WordTokenizer{})
	b.SetCursor(record.ID(cur.NextID), cur.NextTime)
	rp.before = []bundle.Stats{bx.Stats()}
	start := time.Now()
	for i, text := range in.texts {
		root := tr.begin(spRecord, -1, uint32(i))
		s := tr.begin(spFromText, root, uint32(i))
		r := b.FromText(text)
		tr.end(s)
		rp.tokens += uint64(len(r.Tokens))
		s = tr.begin(spEvict, root, uint32(i))
		bx.Evict(r.ID, r.Time)
		tr.end(s)
		s = tr.begin(spProbe, root, uint32(i))
		best, _ := bx.Probe(&r, func(m bundle.Match) { rp.ans.add(uint64(r.ID), uint64(m.Rec.ID)) })
		tr.end(s)
		s = tr.begin(spInsert, root, uint32(i))
		bx.Insert(&r, best)
		tr.end(s)
		tr.end(root)
	}
	rp.wall = time.Since(start)
	rp.probes = uint64(len(in.texts))
	rp.stored = rp.probes
	rp.after = []bundle.Stats{bx.Stats()}
	return rp, nil
}

// replayDistributed builds the partition, restores one bundle index per
// worker, and per record routes it, optionally passes each copy through
// the wire codec, and evicts, probes and (where the strategy stores it)
// inserts on each target worker's index.
func replayDistributed(in *inputs, tr *recorder, wireHop bool) (*replay, error) {
	rp := &replay{}
	k := in.spec.workers
	sp := tr.begin(spPartition, -1, noRecord)
	part, weights := buildPartition(in)
	tr.end(sp)
	rp.partition = time.Duration(tr.spans[sp].end - tr.spans[sp].start)
	rp.predicted = partition.Imbalance(part, weights)
	strat := dispatch.NewLengthBased(in.spec.params(), part)

	idx := make([]*bundle.Index, k)
	for i := range idx {
		sp := tr.begin(spRestore, -1, noRecord)
		idx[i] = in.newIndex()
		if _, _, err := checkpoint.Read(bytes.NewReader(in.snaps[i]), indexJoiner{idx[i]}); err != nil {
			return nil, fmt.Errorf("restoring worker %d: %w", i, err)
		}
		tr.end(sp)
		rp.restore += time.Duration(tr.spans[sp].end - tr.spans[sp].start)
		rp.before = append(rp.before, idx[i].Stats())
	}

	var wbuf bytes.Buffer
	ww := wire.NewWriter(&wbuf)
	wr := wire.NewReader(&wbuf)
	targets := make([]int, 0, k)
	start := time.Now()
	for i, r := range in.timed {
		id := uint32(i)
		rp.tokens += uint64(len(r.Tokens))
		root := tr.begin(spRecord, -1, id)
		s := tr.begin(spRoute, root, id)
		targets = strat.Route(r, k, targets[:0])
		tr.end(s)
		for _, dst := range targets {
			rec, store := r, strat.Stores(r, dst, k)
			if wireHop {
				s = tr.begin(spEncode, root, id)
				err := ww.WriteRecord(store, r)
				if err == nil {
					err = ww.Flush()
				}
				tr.end(s)
				if err != nil {
					return nil, fmt.Errorf("encoding record %d: %w", r.ID, err)
				}
				rp.wireBytes += uint64(wbuf.Len())
				s = tr.begin(spDecode, root, id)
				typ, err := wr.Next()
				var got wire.Record
				if err == nil && typ == wire.TypeRecord {
					got, err = wr.ReadRecord()
				}
				tr.end(s)
				if err != nil || typ != wire.TypeRecord {
					return nil, fmt.Errorf("decoding record %d: frame %d, %v", r.ID, typ, err)
				}
				rec, store = got.Rec, got.Store
			}
			bx := idx[dst]
			s = tr.begin(spEvict, root, id)
			bx.Evict(rec.ID, rec.Time)
			tr.end(s)
			s = tr.begin(spProbe, root, id)
			best, _ := bx.Probe(rec, func(m bundle.Match) {
				if strat.Emits(rec, m.Rec, dst, k) {
					rp.ans.add(uint64(rec.ID), uint64(m.Rec.ID))
				}
			})
			tr.end(s)
			rp.probes++
			if store {
				s = tr.begin(spInsert, root, id)
				bx.Insert(rec, best)
				tr.end(s)
				rp.stored++
			}
		}
		tr.end(root)
	}
	rp.wall = time.Since(start)
	for _, bx := range idx {
		rp.after = append(rp.after, bx.Stats())
	}
	return rp, nil
}

// delta sums the per-worker bundle statistics accumulated during the
// replay loop (restore work excluded).
func (rp *replay) delta() bundle.Stats {
	var d bundle.Stats
	for i := range rp.after {
		a, b := rp.after[i], rp.before[i]
		d.MemberChecks += a.MemberChecks - b.MemberChecks
		d.Verified += a.Verified - b.Verified
		d.Results += a.Results - b.Results
		d.VerifySteps += a.VerifySteps - b.VerifySteps
		d.UnionSteps += a.UnionSteps - b.UnionSteps
		d.Scanned += a.Scanned - b.Scanned
		d.Appends += a.Appends - b.Appends
		d.Bundles += a.Bundles - b.Bundles
		d.KernelLinear += a.KernelLinear - b.KernelLinear
		d.KernelGallop += a.KernelGallop - b.KernelGallop
		d.KernelBitset += a.KernelBitset - b.KernelBitset
		d.BundleQuickSkip += a.BundleQuickSkip - b.BundleQuickSkip
		d.MemberDeltaSkip += a.MemberDeltaSkip - b.MemberDeltaSkip
		d.LiveMembers += a.LiveMembers
		d.Postings += a.Postings
	}
	return d
}

// realizedImbalance is max/mean of per-worker verify steps plus scanned
// postings over the replay loop, the measure the library reports as
// load imbalance.
func (rp *replay) realizedImbalance() float64 {
	var sum, max float64
	for i := range rp.after {
		a, b := rp.after[i], rp.before[i]
		l := float64(a.VerifySteps + a.UnionSteps + a.Scanned - b.VerifySteps - b.UnionSteps - b.Scanned)
		sum += l
		if l > max {
			max = l
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(rp.after)))
}

// Units of the per-layer metrics, by name; BENCHMARK.json declares the same.
var layerUnits = map[string]string{
	"record.fromtext_us":                "us",
	"record.tokens_per_rec":             "count",
	"checkpoint.restore_s":              "s",
	"checkpoint.snapshot_bytes":         "bytes",
	"partition.build_s":                 "s",
	"partition.predicted_imbalance":     "ratio",
	"partition.realized_imbalance":      "ratio",
	"partition.model_error":             "ratio",
	"dispatch.route_us":                 "us",
	"dispatch.fanout":                   "count",
	"dispatch.stored_copies_per_rec":    "count",
	"dispatch.comm_bytes_per_rec":       "bytes",
	"stream.tuples_per_rec":             "count",
	"stream.batch_occupancy":            "count",
	"topology.queue_latency_p50_us":     "us",
	"topology.queue_latency_p99_us":     "us",
	"topology.runtime_cpu_s":            "s",
	"remote.runtime_cpu_s":              "s",
	"remote.write_blocked_s":            "s",
	"remote.worker_read_wait_s":         "s",
	"remote.retries":                    "count",
	"wire.encode_us":                    "us",
	"wire.decode_us":                    "us",
	"wire.result_bytes_per_result":      "bytes",
	"bundle.evict_us":                   "us",
	"bundle.probe_us":                   "us",
	"bundle.insert_us":                  "us",
	"bundle.candidates_per_probe":       "count",
	"bundle.verified_per_probe":         "count",
	"bundle.verify_hit_rate":            "fraction",
	"bundle.pruned_frac":                "fraction",
	"bundle.append_frac":                "fraction",
	"bundle.live_members":               "count",
	"bundle.postings":                   "count",
	"similarity.verify_steps_per_probe": "count",
	"similarity.kernel_linear_frac":     "fraction",
	"similarity.kernel_gallop_frac":     "fraction",
	"similarity.kernel_bitset_frac":     "fraction",
	"process.cpu_s":                     "s",
	"process.allocs_per_rec":            "count",
	"process.gc_cycles":                 "count",
	"process.gc_pause_ms":               "ms",
	"untraced.latency_p99_us":           "us",
	"untraced.wall_rps":                 "records/s",
	"untraced.steal_frac":               "fraction",
	"trace.overhead_frac":               "fraction",
	"trace.unattributed_frac":           "fraction",
}

// runTraced makes one untraced repetition (with pair collection, so its
// pairs can be checked) and one traced replay of the same inputs, checks
// both against the reference, and derives the per-layer metrics.
func runTraced(in *inputs, outDir string) (*outcome, error) {
	o := &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
	n := int64(len(in.timed))
	o.attempted = 2 * n
	r, err := runRep(in, true)
	if err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	if err := r.check(in.ref); err != nil {
		o.failed += n
		o.notes = append(o.notes, "untraced run: "+err.Error())
	}

	perRec := 6
	if in.spec.engine != textStream {
		perRec = 10
	}
	tr := newRecorder(perRec*len(in.timed) + 16)
	var rp *replay
	if in.spec.engine == textStream {
		rp, err = replayText(in, tr)
	} else {
		rp, err = replayDistributed(in, tr, in.spec.engine == tcpFleet)
	}
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	if rp.ans != r.ans || rp.ans != in.ref {
		o.failed += n
		o.notes = append(o.notes, fmt.Sprintf("traced replay gave %d results (hash %x), the untraced run %d (hash %x), the reference %d (hash %x)",
			rp.ans.Results, rp.ans.Hash, r.ans.Results, r.ans.Hash, in.ref.Results, in.ref.Hash))
	}
	path := filepath.Join(outDir, "spans", in.spec.name+".bin")
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	o.notes = append(o.notes, fmt.Sprintf("spans: %d written to %s", len(tr.spans), path))

	self, calls := tr.selfTimes()
	perCall := func(name uint8) float64 {
		if calls[name] == 0 {
			return 0
		}
		return float64(self[name]) / float64(calls[name]) / 1e3
	}
	var layers time.Duration
	for _, name := range []uint8{spFromText, spRoute, spEncode, spDecode, spEvict, spProbe, spInsert} {
		layers += self[name]
	}
	loop := self[spRecord]
	d := rp.delta()
	recs := float64(len(in.timed))
	m := o.metrics
	m["record.fromtext_us"] = perCall(spFromText)
	m["record.tokens_per_rec"] = float64(rp.tokens) / recs
	m["checkpoint.restore_s"] = rp.restore.Seconds()
	m["checkpoint.snapshot_bytes"] = float64(snapshotBytes(in))
	m["partition.build_s"] = rp.partition.Seconds()
	m["partition.predicted_imbalance"] = 1
	m["partition.realized_imbalance"] = 1
	m["partition.model_error"] = 1
	if in.spec.engine != textStream {
		m["partition.predicted_imbalance"] = rp.predicted
		m["partition.realized_imbalance"] = rp.realizedImbalance()
		m["partition.model_error"] = rp.realizedImbalance() / rp.predicted
	}
	m["dispatch.route_us"] = perCall(spRoute)
	m["dispatch.fanout"] = float64(rp.probes) / recs
	m["dispatch.stored_copies_per_rec"] = float64(rp.stored) / recs
	m["wire.encode_us"] = perCall(spEncode)
	m["wire.decode_us"] = perCall(spDecode)
	m["bundle.evict_us"] = perCall(spEvict)
	m["bundle.probe_us"] = perCall(spProbe)
	m["bundle.insert_us"] = perCall(spInsert)
	m["bundle.candidates_per_probe"] = ratio(d.MemberChecks, rp.probes)
	m["bundle.verified_per_probe"] = ratio(d.Verified, rp.probes)
	m["bundle.verify_hit_rate"] = ratio(d.Results, d.Verified)
	m["bundle.pruned_frac"] = ratio(d.BundleQuickSkip+d.MemberDeltaSkip, d.MemberChecks)
	m["bundle.append_frac"] = ratio(d.Appends, d.Appends+d.Bundles)
	m["bundle.live_members"] = float64(d.LiveMembers)
	m["bundle.postings"] = float64(d.Postings)
	m["similarity.verify_steps_per_probe"] = ratio(d.VerifySteps+d.UnionSteps, rp.probes)
	kern := d.KernelLinear + d.KernelGallop + d.KernelBitset
	m["similarity.kernel_linear_frac"] = ratio(d.KernelLinear, kern)
	m["similarity.kernel_gallop_frac"] = ratio(d.KernelGallop, kern)
	m["similarity.kernel_bitset_frac"] = ratio(d.KernelBitset, kern)

	p0, p1 := r.proc[0], r.proc[1]
	cpu := p1.cpu - p0.cpu
	m["process.cpu_s"] = cpu.Seconds()
	m["process.allocs_per_rec"] = float64(p1.mallocs-p0.mallocs) / recs
	m["process.gc_cycles"] = float64(p1.numGC - p0.numGC)
	m["process.gc_pause_ms"] = float64(p1.pause-p0.pause) / 1e6
	m["untraced.latency_p99_us"] = r.p99
	m["untraced.wall_rps"] = recs / r.wall.Seconds()
	m["untraced.steal_frac"] = stealFrac(p0, p1)
	m["trace.overhead_frac"] = rp.wall.Seconds()/r.wall.Seconds() - 1
	m["trace.unattributed_frac"] = 1 - (layers+loop).Seconds()/rp.wall.Seconds()

	for _, name := range []string{"dispatch.comm_bytes_per_rec", "stream.tuples_per_rec", "stream.batch_occupancy",
		"topology.queue_latency_p50_us", "topology.queue_latency_p99_us", "topology.runtime_cpu_s",
		"remote.runtime_cpu_s", "remote.write_blocked_s", "remote.worker_read_wait_s", "remote.retries",
		"wire.result_bytes_per_result"} {
		m[name] = 0
	}
	if res := r.topo; res != nil {
		m["dispatch.comm_bytes_per_rec"] = float64(res.CommBytes) / recs
		m["stream.tuples_per_rec"] = float64(res.Report.TotalTuples()) / recs
		var tuples, batches uint64
		for _, e := range []stream.EdgeKey{{From: "dispatcher", To: "worker"}, {From: "worker", To: "sink"}} {
			if c, ok := res.Report.Edges[e]; ok {
				tuples += c.Tuples.Load()
				batches += c.Batches.Load()
			}
		}
		m["stream.batch_occupancy"] = ratio(tuples, batches)
		m["topology.queue_latency_p50_us"] = r.p50
		m["topology.queue_latency_p99_us"] = r.p99
		m["topology.runtime_cpu_s"] = (cpu - layers).Seconds()
	}
	if fs := r.fleet; fs != nil {
		sum := fs.summary
		m["dispatch.comm_bytes_per_rec"] = float64(sum.BytesSent) / recs
		m["stream.tuples_per_rec"] = float64(sum.TuplesSent+sum.Results) / recs
		m["remote.runtime_cpu_s"] = (cpu - layers).Seconds()
		m["remote.write_blocked_s"] = fs.writeBlocked.Seconds()
		m["remote.worker_read_wait_s"] = fs.readWait.Seconds()
		m["remote.retries"] = float64(sum.Retries + sum.Reconnects)
		m["wire.result_bytes_per_result"] = ratio(fs.resultBytes, sum.Results)
	}
	for name := range m {
		o.samples[name] = 1
	}
	if in.spec.engine == textStream && m["trace.unattributed_frac"] > 0.10 {
		o.notes = append(o.notes, fmt.Sprintf("layer self times plus the replay loop cover only %.1f%% of the traced wall clock",
			100*(1-m["trace.unattributed_frac"])))
	}

	o.counters = withInputCounters(r.counters, in)
	c := o.counters
	c["replay.results"] = rp.ans.Results
	c["replay.hash"] = rp.ans.Hash
	c["replay.probes"] = rp.probes
	c["replay.stored"] = rp.stored
	c["replay.tokens"] = rp.tokens
	c["replay.candidates"] = d.MemberChecks
	c["replay.verified"] = d.Verified
	c["replay.verify_steps"] = d.VerifySteps + d.UnionSteps
	c["replay.scanned"] = d.Scanned
	c["replay.kernel_linear"] = d.KernelLinear
	c["replay.kernel_gallop"] = d.KernelGallop
	c["replay.kernel_bitset"] = d.KernelBitset
	c["replay.wire_bytes"] = rp.wireBytes
	c["replay.live_members"] = d.LiveMembers
	return o, nil
}
