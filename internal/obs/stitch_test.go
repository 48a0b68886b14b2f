package obs

import (
	"fmt"
	"testing"
)

func testRoot(id uint64, startNs int64, spans int) TraceSnapshot {
	ts := TraceSnapshot{ID: id, StartUnixNs: startNs}
	for i := 0; i < spans; i++ {
		parent := i - 1
		ts.Spans = append(ts.Spans, SpanSnapshot{
			Stage: fmt.Sprintf("stage%d", i), Component: "coordinator",
			Parent: parent, StartUs: float64(i), DurationUs: 1,
		})
	}
	return ts
}

func testFrag(id uint64, wireParent int, spans ...FragSpanSnapshot) FragmentSnapshot {
	return FragmentSnapshot{TraceID: id, WireParent: wireParent, Spans: spans}
}

func TestStitchFragmentBeforeRoot(t *testing.T) {
	s := NewStitcher(8)
	frag := testFrag(7, 1,
		FragSpanSnapshot{Stage: "queue", Component: "worker/0", Parent: -1, StartUnixNs: 2000},
		FragSpanSnapshot{Stage: "process", Component: "worker/0", Parent: 0, StartUnixNs: 2500, DurationUs: 3},
	)
	s.AddFragment("w0:9000", frag)
	snap := s.Snapshot()
	if snap.OrphanFragments != 1 || len(snap.Traces) != 0 {
		t.Fatalf("before root: orphans=%d traces=%d, want 1/0", snap.OrphanFragments, len(snap.Traces))
	}

	s.AddRoot(testRoot(7, 1000, 2))
	snap = s.Snapshot()
	if snap.OrphanFragments != 0 || len(snap.Traces) != 1 {
		t.Fatalf("after root: orphans=%d traces=%d, want 0/1", snap.OrphanFragments, len(snap.Traces))
	}
	tr := snap.Traces[0]
	if len(tr.Spans) != 4 {
		t.Fatalf("stitched %d spans, want 4", len(tr.Spans))
	}
	// Fragment span 0 attaches at the wire parent (root span 1); fragment
	// span 1's intra-fragment parent 0 is re-based past the 2 root spans.
	if tr.Spans[2].Parent != 1 {
		t.Fatalf("queue span parent = %d, want wire parent 1", tr.Spans[2].Parent)
	}
	if tr.Spans[3].Parent != 2 {
		t.Fatalf("process span parent = %d, want re-based 2", tr.Spans[3].Parent)
	}
	// Absolute worker clock re-based onto the root's start.
	if tr.Spans[2].StartUs != 1.0 {
		t.Fatalf("queue StartUs = %g, want 1 (2000ns-1000ns)", tr.Spans[2].StartUs)
	}
	if tr.Spans[2].Origin != "w0:9000" || tr.Spans[0].Origin != "coordinator" {
		t.Fatalf("origins not stamped: %q / %q", tr.Spans[2].Origin, tr.Spans[0].Origin)
	}
	if len(tr.Origins) != 2 || tr.Origins[0] != "coordinator" || tr.Origins[1] != "w0:9000" {
		t.Fatalf("trace origins = %v", tr.Origins)
	}
}

func TestStitchDuplicateSpansAfterRetry(t *testing.T) {
	s := NewStitcher(8)
	s.AddRoot(testRoot(9, 0, 2))
	// A replayed record re-processes on the worker: the fragment holds two
	// identical (stage, component, task, parent) spans.
	dup := FragSpanSnapshot{Stage: "process", Component: "worker/1", Task: 1, Parent: -1, StartUnixNs: 100}
	again := dup
	again.StartUnixNs = 900
	s.AddFragment("w1", testFrag(9, 0, dup, again))
	tr := s.Snapshot().Traces[0]
	if tr.DuplicateSpans != 1 {
		t.Fatalf("DuplicateSpans = %d, want 1", tr.DuplicateSpans)
	}
	if len(tr.Spans) != 4 {
		t.Fatalf("duplicate spans must be kept, got %d spans", len(tr.Spans))
	}
}

func TestStitchRescrapeIsIdempotent(t *testing.T) {
	s := NewStitcher(8)
	s.AddRoot(testRoot(3, 0, 1))
	f := testFrag(3, 0, FragSpanSnapshot{Stage: "process", Component: "worker/0", Parent: -1})
	s.AddFragment("w0", f)
	s.AddFragment("w0", f) // second scrape of the same worker
	tr := s.Snapshot().Traces[0]
	if len(tr.Spans) != 2 || tr.DuplicateSpans != 0 {
		t.Fatalf("re-scrape must replace, not append: %d spans, %d dups", len(tr.Spans), tr.DuplicateSpans)
	}
}

func TestStitchOrphansBoundedByRing(t *testing.T) {
	const capacity = 4
	s := NewStitcher(capacity)
	// A worker that died mid-session leaves orphans forever; the pending
	// ring must stay bounded no matter how many ids show up.
	for id := uint64(1); id <= 20; id++ {
		s.AddFragment("dead-worker", testFrag(id, 0,
			FragSpanSnapshot{Stage: "queue", Component: "worker/9", Parent: -1}))
	}
	snap := s.Snapshot()
	if snap.OrphanFragments > capacity {
		t.Fatalf("pending orphans %d exceed ring capacity %d", snap.OrphanFragments, capacity)
	}
	s.mu.Lock()
	pendLen, ringLen := len(s.pending), len(s.pendOrder)
	s.mu.Unlock()
	if pendLen > capacity || ringLen > capacity {
		t.Fatalf("pending map %d / ring %d leak past capacity %d", pendLen, ringLen, capacity)
	}
}

func TestStitchStalePendingSlotIsNoOp(t *testing.T) {
	const capacity = 3
	s := NewStitcher(capacity)
	// Orphan arrives, root adopts it — its pending ring slot goes stale.
	s.AddFragment("w0", testFrag(1, 0, FragSpanSnapshot{Stage: "q", Component: "w", Parent: -1}))
	s.AddRoot(testRoot(1, 0, 1))
	// Now cycle the pending ring well past the stale slot.
	for id := uint64(100); id < 110; id++ {
		s.AddFragment("w0", testFrag(id, 0, FragSpanSnapshot{Stage: "q", Component: "w", Parent: -1}))
	}
	snap := s.Snapshot()
	if len(snap.Traces) != 1 {
		t.Fatalf("adopted trace lost: %d traces", len(snap.Traces))
	}
	if got := len(snap.Traces[0].Spans); got != 2 {
		t.Fatalf("adopted fragment lost: %d spans, want 2", got)
	}
	if snap.OrphanFragments > capacity {
		t.Fatalf("orphans %d exceed capacity %d", snap.OrphanFragments, capacity)
	}
}

func TestStitchRootEvictionDropsFragments(t *testing.T) {
	const capacity = 2
	s := NewStitcher(capacity)
	for id := uint64(1); id <= 5; id++ {
		s.AddRoot(testRoot(id, 0, 1))
		s.AddFragment("w0", testFrag(id, 0, FragSpanSnapshot{Stage: "q", Component: "w", Parent: -1}))
	}
	snap := s.Snapshot()
	if len(snap.Traces) != capacity {
		t.Fatalf("retained %d traces, want %d", len(snap.Traces), capacity)
	}
	if snap.EvictedTraces != 3 {
		t.Fatalf("EvictedTraces = %d, want 3", snap.EvictedTraces)
	}
	s.mu.Lock()
	rootsLen, fragsLen := len(s.roots), len(s.frags)
	s.mu.Unlock()
	if rootsLen != capacity || fragsLen > capacity {
		t.Fatalf("eviction leaked: roots=%d frags=%d, capacity=%d", rootsLen, fragsLen, capacity)
	}
}

func TestStitchBadWireParentClamped(t *testing.T) {
	s := NewStitcher(4)
	s.AddRoot(testRoot(5, 0, 1))       // root has exactly 1 span
	s.AddFragment("w0", testFrag(5, 7, // wire parent beyond the root
		FragSpanSnapshot{Stage: "q", Component: "w", Parent: -1}))
	tr := s.Snapshot().Traces[0]
	if tr.Spans[1].Parent != -1 {
		t.Fatalf("out-of-range wire parent must clamp to -1, got %d", tr.Spans[1].Parent)
	}
}

func TestStitcherNilSafe(t *testing.T) {
	var s *Stitcher
	s.AddRoot(testRoot(1, 0, 1))
	s.AddFragment("w", testFrag(1, 0))
	if snap := s.Snapshot(); len(snap.Traces) != 0 {
		t.Fatal("nil stitcher must be empty")
	}
}
