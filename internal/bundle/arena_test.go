package bundle

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/record"
	"repro/internal/window"
	"repro/internal/workload"
)

// checkArena asserts that nothing the index can still reach sits on one
// of the arena's free stacks: no bundle reachable from a posting list,
// the tree or the fifo is free, and no free member is in the live fifo,
// in a live bundle's Members or anchored in the tree. Every bundle's refs
// must equal the posting entries that point at it, and a kept posting
// list must pin no bundle. tracked carries every bundle the window has
// held since it was last seen free: a dead one must still be reachable
// from a posting list (refs > 0) or be back on the free stack, so a dead
// bundle is reused exactly when its last stale posting is dropped.
func checkArena(t *testing.T, bx *Index, step int, tracked map[*Bundle]bool) {
	t.Helper()
	al := &bx.al
	freeB := make(map[*Bundle]bool, len(al.freeBundles))
	for _, b := range al.freeBundles {
		if freeB[b] {
			t.Fatalf("step %d: bundle on the free stack twice", step)
		}
		freeB[b] = true
	}
	freeM := make(map[*Member]bool, len(al.freeMembers))
	for _, m := range al.freeMembers {
		if freeM[m] {
			t.Fatalf("step %d: member on the free stack twice", step)
		}
		freeM[m] = true
	}
	entries := make(map[*Bundle]int)
	for tok, list := range bx.posts {
		for _, b := range list {
			if freeB[b] {
				t.Fatalf("step %d: free bundle reachable from the posting list of token %d", step, tok)
			}
			entries[b]++
		}
	}
	for b, n := range entries {
		if int(b.refs) != n {
			t.Fatalf("step %d: bundle %d (live=%d) has refs=%d but %d posting entries", step, b.ID, b.live, b.refs, n)
		}
	}
	for _, l := range al.postLists {
		for _, b := range l[:cap(l)] {
			if b != nil {
				t.Fatalf("step %d: a kept posting list still points at bundle %d", step, b.ID)
			}
		}
	}
	for b := range tracked {
		switch {
		case freeB[b]:
			delete(tracked, b)
		case b.live == 0 && (b.refs == 0 || int(b.refs) != entries[b]):
			t.Fatalf("step %d: dead bundle %d has refs=%d and %d posting entries but is not free",
				step, b.ID, b.refs, entries[b])
		}
	}
	for _, fe := range bx.fifo[bx.head:] {
		tracked[fe.b] = true
		if freeM[fe.m] {
			t.Fatalf("step %d: free member %p still in the window", step, fe.m)
		}
		if freeB[fe.b] {
			t.Fatalf("step %d: free bundle still holds member %d", step, fe.m.Rec.ID)
		}
		if entries[fe.b] != int(fe.b.refs) {
			t.Fatalf("step %d: live bundle %d has refs=%d but %d posting entries", step, fe.b.ID, fe.b.refs, entries[fe.b])
		}
		for _, m := range fe.b.Members {
			if freeM[m] {
				t.Fatalf("step %d: free member in live bundle %d", step, fe.b.ID)
			}
		}
	}
	if bx.root == nil {
		return
	}
	var walk func(n *treeNode)
	walk = func(n *treeNode) {
		for _, le := range n.leaf {
			if freeB[le.b] || freeM[le.m] {
				t.Fatalf("step %d: the tree anchors a free bundle or member", step)
			}
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(bx.root)
}

// burstyClock restamps a stream with a clock that advances by 0-3 ticks
// per record, so a time window evicts records in uneven bursts.
func burstyClock(rng *rand.Rand, stream []*record.Record) []*record.Record {
	out := make([]*record.Record, len(stream))
	var now int64
	for i, r := range stream {
		now += int64(rng.Intn(4))
		c := *r
		c.Time = now
		out[i] = &c
	}
	return out
}

// TestArenaRecycleSafety runs eviction-heavy streams through every verify
// mode with small bundles, under count and time windows, and checks the
// arena after every record: recycling must never hand out a member or a
// bundle the index can still reach (checkArena), and the join must still
// equal brute force. The wide-vocabulary stream leaves most postings to
// the sweep rather than to probe compaction, so both paths that drop
// stale postings are exercised.
func TestArenaRecycleSafety(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	streams := []struct {
		name   string
		stream []*record.Record
	}{
		{"clustered", burstyClock(rng, duplicateHeavyStream(rng, 900, 60))},
		{"wide", burstyClock(rng, duplicateHeavyStream(rng, 2500, 20000))},
	}
	wins := []window.Policy{
		window.Count{N: 30},
		window.Count{N: autoTreeMinLive + 30},
		window.Time{Span: 40},
	}
	for _, s := range streams {
		for _, win := range wins {
			want := bruteForce(s.stream, 0.6, win)
			for _, mode := range []VerifyMode{VerifyCollect, VerifyTree, VerifyAuto} {
				t.Run(fmt.Sprintf("%s/%v/%v", s.name, win, mode), func(t *testing.T) {
					bx := New(params(0.6), win, Config{VerifyMode: mode, MaxMembers: 3})
					got := make(map[record.Pair]bool)
					structs := make(map[*Bundle]bool)
					tracked := make(map[*Bundle]bool)
					for i, r := range s.stream {
						bx.Process(r, func(m Match) { got[record.NewPair(r.ID, m.Rec.ID, 0)] = true })
						checkArena(t, bx, i, tracked)
						structs[bx.fifo[len(bx.fifo)-1].b] = true
					}
					if uint64(len(structs)) >= bx.stats.Bundles {
						t.Fatalf("%d bundles created in %d distinct structs: nothing was recycled",
							bx.stats.Bundles, len(structs))
					}
					if len(got) != len(want) {
						t.Fatalf("got %d pairs, brute force %d", len(got), len(want))
					}
					for pr := range want {
						if !got[pr] {
							t.Fatalf("missing %v", pr)
						}
					}
				})
			}
		}
	}
}

// BenchmarkIndexStepShort measures one steady-state join step — Evict,
// Probe and Insert — on pre-built AOL-like 3-4-token records through a
// warm 5,000-record count window. Evicted members and retired bundles
// are recycled, so the step must report 0 allocs/op (amortized growth of
// the free stacks and of the rank chunk stays below one per step).
func BenchmarkIndexStepShort(b *testing.B) {
	const warm, stream = 5_000, 50_000
	prof := workload.AOLLike(1)
	prof.Lengths = workload.Uniform{Min: 3, Max: 4}
	recs := workload.NewGenerator(prof).Generate(stream)
	bx := New(params(0.8), window.Count{N: warm}, Config{})
	emit := func(Match) {}
	// One pass over the stream fills the window and grows the free stacks
	// and scratch buffers to their steady size.
	for _, r := range recs {
		bx.Process(r, emit)
	}
	// The timed loop replays the stream's token sets under fresh IDs. A
	// record slot is rewritten only after its previous occupant has left
	// the window, so the ring stands in for records that become garbage.
	ring := make([]record.Record, 2*warm)
	next := recs[len(recs)-1].ID
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next++
		r := &ring[i%len(ring)]
		*r = record.Record{ID: next, Time: int64(next), Tokens: recs[i%len(recs)].Tokens}
		bx.Evict(r.ID, r.Time)
		best, _ := bx.Probe(r, emit)
		bx.Insert(r, best)
	}
}
