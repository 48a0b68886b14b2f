package bundle

import (
	"math/rand"
	"testing"

	"repro/internal/record"
	"repro/internal/window"
)

// checkPostings asserts the posting-list accounting after a step: the
// Postings gauge counts every entry, deadPosts counts exactly the entries
// whose bundle has died, dead entries never outnumber live ones by more
// than the sweep floor, and a dead bundle a list still holds has let go
// of its members and token sets. It returns the dead entry count.
func checkPostings(t *testing.T, bx *Index, step int) uint64 {
	t.Helper()
	var total, dead uint64
	for _, list := range bx.posts {
		for _, b := range list {
			total++
			if b.live != 0 {
				continue
			}
			dead++
			if b.Members != nil || b.Union != nil || b.Core != nil || b.posted != nil {
				t.Fatalf("step %d: dead bundle %d still holds its members or token sets", step, b.ID)
			}
		}
	}
	if total != bx.stats.Postings || dead != bx.deadPosts {
		t.Fatalf("step %d: lists hold %d entries (%d dead), stats say %d (%d dead)",
			step, total, dead, bx.stats.Postings, bx.deadPosts)
	}
	if dead >= sweepMinDead && dead > total-dead {
		t.Fatalf("step %d: %d dead posting entries against %d live, sweep missed", step, dead, total-dead)
	}
	return dead
}

// TestSweepBoundsDeadPostings streams records over a wide vocabulary, so
// most prefix tokens never come up in a probe again and only the sweep
// compacts their lists. The dead entries must stay bounded by the live
// ones in every mode that keeps posting lists, and the join must still
// match the brute-force answer.
func TestSweepBoundsDeadPostings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stream := duplicateHeavyStream(rng, 6000, 20000)
	win := window.Count{N: autoTreeMinLive + 20}
	want := bruteForce(stream, 0.6, win)
	for _, mode := range []VerifyMode{VerifyCollect, VerifyAuto} {
		t.Run(mode.String(), func(t *testing.T) {
			bx := New(params(0.6), win, Config{VerifyMode: mode})
			got := make(map[record.Pair]bool)
			sweeps := 0
			var prev uint64
			for i, r := range stream {
				bx.Process(r, func(m Match) { got[record.NewPair(r.ID, m.Rec.ID, 0)] = true })
				dead := checkPostings(t, bx, i)
				if prev >= sweepMinDead/2 && dead == 0 {
					sweeps++
				}
				prev = dead
			}
			if sweeps == 0 {
				t.Fatal("no sweep ran: the stream never piled up dead postings")
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
