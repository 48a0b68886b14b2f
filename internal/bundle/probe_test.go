package bundle

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/similarity"
	"repro/internal/window"
	"repro/internal/workload"
)

// checkProbeFields asserts, for every live bundle of bx, the cached state
// the probe path reads instead of the members: the length extremes equal
// a recomputation over the live members, and a singleton's Union (with
// its packed form) stands in exactly for its member's tokens. It returns
// how many live singletons own their Union, which only removeDead's
// rebuild produces (a fresh singleton aliases its record's tokens).
func checkProbeFields(t *testing.T, bx *Index, step int) (rebuilt int) {
	t.Helper()
	seen := make(map[*Bundle]bool)
	for _, fe := range bx.fifo[bx.head:] {
		b := fe.b
		if seen[b] {
			continue
		}
		seen[b] = true
		live, lo, hi := 0, 0, 0
		for _, m := range b.Members {
			if m.dead {
				continue
			}
			live++
			l := m.Rec.Len()
			if lo == 0 || l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		if live != b.Live() || len(b.Members) != b.Live() {
			t.Fatalf("step %d bundle %d: live=%d, %d members, %d alive", step, b.ID, b.live, len(b.Members), live)
		}
		if b.MinLen() != lo || b.MaxLen() != hi {
			t.Fatalf("step %d bundle %d: cached lengths [%d,%d], members span [%d,%d]",
				step, b.ID, b.MinLen(), b.MaxLen(), lo, hi)
		}
		if b.live != 1 {
			continue
		}
		m := b.Members[0]
		if !reflect.DeepEqual(b.Union, m.Rec.Tokens) {
			t.Fatalf("step %d singleton %d: union %v != member tokens %v", step, b.ID, b.Union, m.Rec.Tokens)
		}
		if b.unionOK != m.fullOK {
			t.Fatalf("step %d singleton %d: unionOK=%v but member fullOK=%v", step, b.ID, b.unionOK, m.fullOK)
		}
		if b.unionOK && !reflect.DeepEqual(b.unionP, m.full) {
			t.Fatalf("step %d singleton %d: packed union differs from the member's packed tokens", step, b.ID)
		}
		if b.unionOwned {
			rebuilt++
		}
	}
	return rebuilt
}

// TestProbeFieldInvariants runs seeded insert/evict streams through every
// verify mode, both grouping rejects and the packed kernels, checking the
// probe-path invariants after every record: collectCandidates filters on
// Bundle.minLen/maxLen and the singleton path verifies from Bundle.Union,
// so both must track the live members exactly.
func TestProbeFieldInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	stream := duplicateHeavyStream(rng, 3*autoTreeMinLive, 40)
	cases := []struct {
		name   string
		cfg    Config
		reject bool // the config must reject some memberships
	}{
		{name: "collect", cfg: Config{}},
		{name: "tree", cfg: Config{VerifyMode: VerifyTree}},
		{name: "auto", cfg: Config{VerifyMode: VerifyAuto}},
		{name: "max-members", cfg: Config{MaxMembers: 3}, reject: true},
		{name: "min-core-frac", cfg: Config{MinCoreFrac: 0.9}, reject: true},
		{name: "bitset", cfg: Config{Kernel: similarity.KernelConfig{Mode: similarity.KernelBitset}}},
		{name: "auto-kernel", cfg: Config{Kernel: similarity.KernelConfig{Mode: similarity.KernelAuto, GallopRatio: 2, BitsetMinLen: 4}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bx := New(params(0.6), window.Count{N: autoTreeMinLive + 20}, tc.cfg)
			rebuilt := 0
			for i, r := range stream {
				bx.Process(r, func(Match) {})
				rebuilt += checkProbeFields(t, bx, i)
			}
			st := bx.Stats()
			if st.Evicted == 0 || st.Appends == 0 || rebuilt == 0 {
				t.Fatalf("stream too tame: evicted=%d appends=%d rebuilt singletons=%d", st.Evicted, st.Appends, rebuilt)
			}
			if tc.reject && st.GroupRejectLen == 0 {
				t.Fatal("no membership was rejected")
			}
			if tc.cfg.VerifyMode != VerifyTree && st.BundleLenSkip == 0 {
				t.Fatal("the scan-side length filter never fired")
			}
			if tc.cfg.VerifyMode == VerifyAuto && (st.TreeProbes == 0 || st.TreeProbes == st.Records) {
				t.Fatalf("auto mode did not mix paths: %d tree probes of %d", st.TreeProbes, st.Records)
			}
		})
	}
}

// TestBundleLayout guards the Bundle footprint. The arena reuses a
// retired bundle once no posting list reaches it, so the heap holds one
// Bundle per live bundle plus one per retired bundle still waiting for
// its stale postings to be compacted, and each word added here shows up
// directly in the live heap on short-record streams such as AOL.
func TestBundleLayout(t *testing.T) {
	if sz := unsafe.Sizeof(Bundle{}); sz > 256 {
		t.Fatalf("Bundle is %d bytes, over 256: every live bundle and every retired one awaiting reuse "+
			"carries the growth into the live heap; pack new fields into existing padding", sz)
	}
}

// BenchmarkProbeLongSets isolates the collect → length filter → verify
// path on long sets: ~100-token Enron-like records, τ=0.7, a warm
// 10,000-record count window, and fresh probes with no inserts, so the
// index stays fixed and every iteration is one Probe. Probe is marked
// zero-alloc, so the steady state must report 0 allocs/op.
func BenchmarkProbeLongSets(b *testing.B) {
	const warm, probes = 10_000, 1_000
	prof := workload.EnronLike(1)
	prof.Lengths = workload.Lognormal{Mu: 4.6, Sigma: 0.3, Min: 40, Max: 250}
	recs := workload.NewGenerator(prof).Generate(warm + probes)
	bx := New(params(0.7), window.Count{N: warm}, Config{})
	for _, r := range recs[:warm] {
		bx.Process(r, func(Match) {})
	}
	queries := recs[warm:]
	// One pass over the probes grows every scratch buffer to its steady
	// size before timing.
	for _, r := range queries {
		bx.Probe(r, func(Match) {})
	}
	before := bx.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bx.Probe(queries[i%probes], func(Match) {})
	}
	b.StopTimer()
	st := bx.Stats()
	n := float64(b.N)
	b.ReportMetric(float64(st.BundleCands-before.BundleCands)/n, "cands/op")
	b.ReportMetric(float64(st.BundleLenSkip-before.BundleLenSkip)/n, "lenskip/op")
	b.ReportMetric(float64(st.Verified-before.Verified)/n, "verified/op")
}
