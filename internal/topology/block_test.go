package topology

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/filter"
	"repro/internal/local"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/stream"
	"repro/internal/window"
	"repro/internal/workload"
)

// bruteBi is the two-stream reference: every pair of records from opposite
// sides at or above the threshold.
func bruteBi(recs []BiRecord, p filter.Params) map[record.Pair]bool {
	out := make(map[record.Pair]bool)
	for i, r := range recs {
		for _, s := range recs[:i] {
			if r.Right != s.Right &&
				similarity.Of(p.Func, r.Rec.Tokens, s.Rec.Tokens) >= p.Threshold-1e-12 {
				out[record.NewPair(r.Rec.ID, s.Rec.ID, 0)] = true
			}
		}
	}
	return out
}

// TestResultBlocks checks the result path end to end across batch size,
// dispatcher count (1, and 2 for the reorder path) and self/two-stream
// runs: the collected pairs are the brute-force set with no duplicate, the
// sink's count equals the pairs it collected, worker→sink bytes stay 24 B
// per pair, and the sink edge carries at most one block per worker input
// batch, each shipped as its own transport batch.
func TestResultBlocks(t *testing.T) {
	p := params(0.6)
	recs := genStream(700, 31)
	biRecs := make([]BiRecord, len(recs))
	for i, r := range recs {
		biRecs[i] = BiRecord{Rec: r, Right: i%3 == 0}
	}
	wantSelf := bruteCount(recs, p, nil)
	wantBi := bruteBi(biRecs, p)
	if len(wantSelf) == 0 || len(wantBi) == 0 {
		t.Fatal("degenerate test: no result pairs")
	}
	for _, bs := range []int{1, 64} {
		for _, disp := range []int{1, 2} {
			for _, bi := range []bool{false, true} {
				name := fmt.Sprintf("batch=%d/dispatchers=%d/bi=%v", bs, disp, bi)
				cfg := Config{
					Workers:      2,
					Strategy:     strategies(p, recs, 2)[0],
					Algorithm:    local.Bundled,
					Params:       p,
					BatchSize:    bs,
					Dispatchers:  disp,
					CollectPairs: true,
				}
				var (
					res  *Result
					err  error
					want map[record.Pair]bool
				)
				if bi {
					res, err = RunBi(biRecs, cfg)
					want = wantBi
				} else {
					res, err = Run(recs, cfg)
					want = wantSelf
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := make(map[record.Pair]bool, len(res.Pairs))
				for _, pr := range res.Pairs {
					key := record.Pair{First: pr.First, Second: pr.Second}
					if got[key] {
						t.Fatalf("%s: duplicate pair %v", name, key)
					}
					got[key] = true
				}
				if len(got) != len(want) {
					t.Fatalf("%s: %d pairs, brute force %d", name, len(got), len(want))
				}
				for pr := range want {
					if !got[pr] {
						t.Fatalf("%s: missing %v", name, pr)
					}
				}
				if res.Results != uint64(len(res.Pairs)) {
					t.Fatalf("%s: sink counted %d results but collected %d pairs", name, res.Results, len(res.Pairs))
				}
				sinkEdge := res.Report.Edges[stream.EdgeKey{From: "worker", To: "sink"}]
				if b := sinkEdge.Bytes.Load(); b != 24*res.Results {
					t.Fatalf("%s: worker→sink bytes %d, want 24 × %d", name, b, res.Results)
				}
				blocks, inBatches := sinkEdge.Tuples.Load(), res.Report.EdgeBatches("dispatcher", "worker")
				if blocks == 0 || blocks > inBatches {
					t.Fatalf("%s: %d result blocks for %d worker input batches", name, blocks, inBatches)
				}
				if sb := sinkEdge.Batches.Load(); sb != blocks {
					t.Fatalf("%s: %d result blocks in %d transport batches, want one each", name, blocks, sb)
				}
				if res.LateDrops != 0 {
					t.Fatalf("%s: %d late drops", name, res.LateDrops)
				}
			}
		}
	}
}

// captureEmitter keeps every tuple a bolt emits.
type captureEmitter struct{ got []stream.Tuple }

func (c *captureEmitter) Emit(t stream.Tuple)             { c.got = append(c.got, t) }
func (c *captureEmitter) EmitTo(_ string, t stream.Tuple) { c.Emit(t) }

// newTestWorker builds a single worker bolt over a Bundled joiner, the way
// run wires one, for driving the bolt directly.
func newTestWorker(p filter.Params, win window.Policy) *workerBolt {
	w := &workerBolt{
		k:      1,
		strat:  dispatch.BroadcastBased{},
		joiner: local.New(local.Bundled, local.Options{Params: p, Window: win}),
	}
	w.emitFn = w.emitMatch
	return w
}

// TestExecuteOutsideBatchShipsBlock: a direct Execute call, with no
// ExecuteBatch around it, ships the record's results as one block at once
// and ships nothing for a record without results.
func TestExecuteOutsideBatchShipsBlock(t *testing.T) {
	p := params(0.6)
	recs := genStream(400, 7)
	want := bruteCount(recs, p, nil)
	w := newTestWorker(p, nil)
	defer w.joiner.(interface{ Close() error }).Close()
	var em captureEmitter
	total := 0
	for _, r := range recs {
		before := len(em.got)
		w.Execute(&RecTuple{Rec: r, Enq: time.Now()}, &em)
		var matches int
		for s := range want {
			if s.Second == r.ID {
				matches++
			}
		}
		switch shipped := len(em.got) - before; {
		case matches == 0 && shipped != 0:
			t.Fatalf("record %d: shipped %d blocks without a result", r.ID, shipped)
		case matches > 0 && shipped != 1:
			t.Fatalf("record %d: %d results shipped in %d blocks, want 1", r.ID, matches, shipped)
		case matches > 0:
			if n := len(em.got[before].(*ResultTuple).Pairs); n != matches {
				t.Fatalf("record %d: block holds %d pairs, want %d", r.ID, n, matches)
			}
		}
		total += matches
	}
	if total == 0 || w.block != nil {
		t.Fatalf("degenerate run or block left behind: %d results, pending %v", total, w.block)
	}
}

// TestTracedResultBlocks: under full sampling every verify span of a
// traced pair gets exactly one deliver span parented to it.
func TestTracedResultBlocks(t *testing.T) {
	p := params(0.6)
	recs := genStream(300, 11)
	tracer := obs.NewTracer(1, len(recs))
	res, err := Run(recs, Config{
		Workers:   2,
		Strategy:  strategies(p, recs, 2)[0],
		Algorithm: local.Bundled,
		Params:    p,
		Tracer:    tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	var verify, deliver uint64
	for _, ts := range tracer.Recent() {
		delivered := map[int]int{}
		for _, sp := range ts.Spans {
			switch sp.Stage {
			case "verify":
				verify++
			case "deliver":
				deliver++
				if sp.Parent < 0 || ts.Spans[sp.Parent].Stage != "verify" {
					t.Fatalf("trace %d: deliver span parented to %d, not a verify span", ts.ID, sp.Parent)
				}
				delivered[sp.Parent]++
			}
		}
		for parent, n := range delivered {
			if n != 1 {
				t.Fatalf("trace %d: verify span %d delivered %d times", ts.ID, parent, n)
			}
		}
	}
	if verify != res.Results || deliver != res.Results {
		t.Fatalf("%d verify and %d deliver spans for %d results", verify, deliver, res.Results)
	}
}

// TestRecycledBlocksPinNothing: the sink returns a block to the pool with
// no trace reference left in its side list, and a block whose pair slice
// grew past maxPooledPairs gives that slice up.
func TestRecycledBlocksPinNothing(t *testing.T) {
	tracer := obs.NewTracer(1, 4)
	tr := tracer.Sample()
	now := time.Now()
	span := tr.Append("verify", "worker", 0, -1, now, now)
	small := &ResultTuple{
		Pairs:  make([]record.Pair, 3, 8),
		traced: []tracedPair{{trace: tr, parent: span}, {trace: tr, parent: span}},
	}
	big := &ResultTuple{Pairs: make([]record.Pair, maxPooledPairs+1)}
	sink := &sinkBolt{}
	sink.Execute(small, nil)
	sink.Execute(big, nil)
	if sink.count != 3+maxPooledPairs+1 {
		t.Fatalf("sink counted %d pairs", sink.count)
	}
	if len(small.Pairs) != 0 || cap(small.Pairs) != 8 {
		t.Fatalf("small block: len %d cap %d, want 0 and its capacity kept", len(small.Pairs), cap(small.Pairs))
	}
	if len(small.traced) != 0 {
		t.Fatalf("small block keeps %d traced pairs", len(small.traced))
	}
	for i, tp := range small.traced[:cap(small.traced)] {
		if tp.trace != nil {
			t.Fatalf("recycled block pins a trace in side-list slot %d", i)
		}
	}
	if big.Pairs != nil {
		t.Fatalf("oversized block pooled with capacity %d", cap(big.Pairs))
	}
	var delivers int
	for _, ts := range tracer.Recent() {
		for _, sp := range ts.Spans {
			if sp.Stage == "deliver" {
				delivers++
			}
		}
	}
	if delivers != 2 {
		t.Fatalf("%d deliver spans for 2 traced pairs", delivers)
	}
}

// sinkEmitter hands every emitted tuple straight to a sink bolt, standing
// in for the worker→sink edge.
type sinkEmitter struct{ s *sinkBolt }

func (e sinkEmitter) Emit(t stream.Tuple)             { e.s.Execute(t, nil) }
func (e sinkEmitter) EmitTo(_ string, t stream.Tuple) { e.s.Execute(t, nil) }

// probeOnly routes and emits like BroadcastBased but stores nothing, so a
// warm window stays exactly as it is.
type probeOnly struct{ dispatch.BroadcastBased }

func (probeOnly) Stores(*record.Record, int, int) bool { return false }

// BenchmarkResultPath measures the result path of one worker input batch
// on a warm joiner: 64 records probe a full window, their pairs gather in
// one pooled block, the block ships, and the sink counts and recycles it.
// The probing records are stored nowhere and keep their IDs, so every op
// sees the same window and the same matches: allocations measure the
// result path and the probe alone (0 allocs/op), not window growth.
func BenchmarkResultPath(b *testing.B) {
	const warm, n, batch = 5_000, 50_000, stream.DefaultBatchSize
	prof := workload.AOLLike(1)
	prof.Lengths = workload.Uniform{Min: 3, Max: 4}
	recs := workload.NewGenerator(prof).Generate(n + batch)
	w := newTestWorker(params(0.8), window.Count{N: warm})
	defer w.joiner.(interface{ Close() error }).Close()
	sink := &sinkBolt{}
	em := sinkEmitter{s: sink}
	for _, r := range recs[:n] {
		w.Execute(&RecTuple{Rec: r}, em)
	}
	w.strat = probeOnly{}
	ts := make([]stream.Tuple, batch)
	for i, r := range recs[n:] {
		ts[i] = &RecTuple{Rec: r}
	}
	w.ExecuteBatch(ts, em) // warm the probe scratch and the block pool
	sink.count = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ExecuteBatch(ts, em)
	}
	b.StopTimer()
	if sink.count == 0 {
		b.Fatal("no results reached the sink")
	}
	b.ReportMetric(float64(sink.count)/float64(b.N), "pairs/op")
}
