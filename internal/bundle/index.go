package bundle

import (
	"sync/atomic"

	"repro/internal/filter"
	"repro/internal/record"
	"repro/internal/similarity"
	"repro/internal/tokens"
	"repro/internal/window"
)

// Config tunes bundle construction and verification.
type Config struct {
	// GroupThreshold λ is the minimum similarity between an incoming record
	// and its best join partner for the record to join that partner's
	// bundle; below it the record starts a singleton bundle. λ >= the join
	// threshold τ; λ == τ (the default when zero) groups most aggressively.
	GroupThreshold float64
	// MaxMembers caps bundle size so core maintenance stays cheap.
	// Default 64.
	MaxMembers int
	// MinCoreFrac rejects a membership that would shrink the core below
	// this fraction of the incoming record's length, protecting the
	// shared-verification benefit. Default 0.5.
	MinCoreFrac float64
	// OneByOneVerify disables batch verification: each surviving member is
	// verified by a full merge of the probe against the member's complete
	// token set. Used by the E8 ablation.
	OneByOneVerify bool
	// Kernel selects the verification intersection kernel and its cutoffs
	// (see similarity.KernelConfig). Every kernel computes exact overlaps,
	// so this setting never changes the emitted matches — it is therefore
	// worker-local and deliberately kept off the wire protocol.
	Kernel similarity.KernelConfig
	// VerifyMode selects collect (posting-list candidates, then verify),
	// tree (candidate-free filter-and-verification tree), or auto (per
	// probe). Every mode emits the byte-identical match stream, so like
	// Kernel it is worker-local and kept off the wire protocol.
	VerifyMode VerifyMode
}

func (c Config) withDefaults(tau float64) Config {
	if c.GroupThreshold == 0 {
		c.GroupThreshold = tau
	}
	if c.MaxMembers == 0 {
		c.MaxMembers = 64
	}
	if c.MinCoreFrac == 0 {
		c.MinCoreFrac = 0.5
	}
	c.Kernel = c.Kernel.WithDefaults()
	return c
}

// Match is a verified join result.
type Match struct {
	Rec     *record.Record
	Overlap int
	Sim     float64
}

// Stats counts the work the bundle index performed.
type Stats struct {
	Records        uint64 // records processed
	Bundles        uint64 // bundles created
	Appends        uint64 // records appended to an existing bundle
	Postings       uint64 // live posting entries
	Scanned        uint64 // bundle postings visited
	BundleCands    uint64 // distinct candidate bundles per probe, summed
	BundleLenSkip  uint64 // candidate bundles dropped by the length range in the posting scan
	BundleUBSkip   uint64 // bundles skipped entirely by the union bound
	MemberChecks   uint64 // member upper-bound evaluations
	MemberUBSkip   uint64 // members skipped by the min(unionO, |y|) bound
	Verified       uint64 // members fully verified
	Results        uint64 // matches emitted
	VerifySteps    uint64 // merge iterations spent verifying (core+delta or full)
	CoreSteps      uint64 // portion of VerifySteps spent on shared cores
	Evicted        uint64 // members evicted
	LiveBundles    uint64
	LiveMembers    uint64
	MaxBundleSize  uint64
	UnionOverlaps  uint64 // union-overlap computations (bundle-level filter)
	UnionSteps     uint64 // merge iterations spent on union bounds
	CoreOverlaps   uint64 // distinct core-overlap computations
	SingletonFast  uint64 // singleton bundles verified directly
	RebuildSweeps  uint64 // posting sweeps triggered
	DeadPostSkips  uint64 // dead bundle postings compacted (by probes or sweeps)
	GroupRejectLen uint64 // memberships rejected by MaxMembers/MinCoreFrac

	KernelLinear    uint64 // verification merges run by the linear kernel
	KernelGallop    uint64 // verification merges run by the galloping kernel
	KernelBitset    uint64 // verification merges run by the bitset kernel
	BundleQuickSkip uint64 // bundles skipped by the pre-merge size bound
	MemberDeltaSkip uint64 // members skipped by the core+|delta| bound

	TreeProbes         uint64 // probes answered by the verification tree
	TreeNodesVisited   uint64 // tree nodes descended
	TreeSubtreesPruned uint64 // subtrees cut by candidacy/length/position bounds
	TreeCandsAvoided   uint64 // members skipped with no per-member work at all
	TreeLeafUBSkip     uint64 // anchored members cut by the position bound
	TreeSuffixSkip     uint64 // anchored members cut by the suffix filter
	TreeNodes          uint64 // live tree nodes, excluding the root (gauge)
}

// Pruned sums the candidates the kernel-tier upper bounds discarded
// before any verification merge ran.
func (s Stats) Pruned() uint64 { return s.BundleQuickSkip + s.MemberDeltaSkip }

type fifoEntry struct {
	b *Bundle
	m *Member
}

// Index is the bundle-based streaming joiner. Like index.Inverted it is
// single-writer: each worker bolt owns one.
type Index struct {
	params filter.Params
	win    window.Policy
	cfg    Config

	posts  map[tokens.Rank][]*Bundle
	fifo   []fifoEntry
	head   int
	nextID uint64
	// deadPosts counts posting entries whose bundle has died and that no
	// compaction has dropped yet; Evict sweeps every list once they
	// outnumber the live entries (see sweepPosts).
	deadPosts uint64

	stats Stats
	live  *LiveStats // optional atomic mirror, see PublishLive

	// probe scratch
	cands []*Bundle
	walk  []walkRef
	// probeSeq is the monotonic probe counter stamped into Bundle.lastSeen
	// for per-probe candidate dedup (replaces a per-probe map).
	probeSeq uint64
	// probeP is the probe record's packed form, built once per probe in
	// collectCandidates (single-writer phase) and read-only during the —
	// possibly fanned — verify phase.
	probeP  similarity.Packed
	probeOK bool
	// trial is insert-path scratch for the candidate core intersection
	// (single-writer like the rest of the index, so a plain reused slice
	// beats pooling here; pooled buffers cover the shared helpers in
	// Bundle.add).
	trial []tokens.Rank
	// al hands out members, bundles, deltas and posting lists on the
	// insert path, recycling what the window retired.
	al alloc
	// newPosts is insert-path scratch for the tokens Bundle.add reports
	// as newly posted.
	newPosts []tokens.Rank

	// root anchors the filter-and-verification tree; nil in collect mode
	// (auto maintains both structures). tw and frontier are the serial
	// descent's reusable walk state and root-fanout scratch.
	root     *treeNode
	tw       treeWalk
	frontier []*treeNode

	// emitBuf buffers one probe's matches so every mode and pool size can
	// flush them in the canonical per-probe order (ascending partner ID);
	// emitAppend is the prebuilt append closure handed to verifiers.
	emitBuf    []Match
	emitAppend func(Match)

	// adaptProbes/adaptMark drive the optional periodic BitsetMinLen
	// re-estimation (see adaptTick).
	adaptProbes uint64
	adaptMark   struct{ linear, gallop, bitset uint64 }
}

// walkRef is one prefix token's posting list in the selectivity-ordered
// walk: pos is the token's prefix position, n the list length at sort
// time.
type walkRef struct {
	pos int32
	n   int32
}

// New returns an empty bundle index.
func New(p filter.Params, w window.Policy, cfg Config) *Index {
	bx := &Index{
		params: p,
		win:    w,
		cfg:    cfg.withDefaults(p.Threshold),
		posts:  make(map[tokens.Rank][]*Bundle),
	}
	if bx.cfg.VerifyMode != VerifyCollect {
		bx.root = &treeNode{}
	}
	bx.emitAppend = func(m Match) { bx.emitBuf = append(bx.emitBuf, m) }
	return bx
}

// Params returns the join parameters.
func (bx *Index) Params() filter.Params { return bx.params }

// Config returns the effective configuration after defaulting.
func (bx *Index) Config() Config { return bx.cfg }

// Stats snapshots the work counters.
func (bx *Index) Stats() Stats {
	s := bx.stats
	s.LiveMembers = uint64(len(bx.fifo) - bx.head)
	return s
}

// LiveStats mirrors the headline Stats counters in atomics so a scrape
// goroutine can read them while the single-writer worker is mid-stream.
// The Index publishes into it once per processed record — the full Stats
// struct stays unsynchronized and is only safe to read after the run.
type LiveStats struct {
	Records    atomic.Uint64
	Candidates atomic.Uint64
	Verified   atomic.Uint64
	Results    atomic.Uint64
	Members    atomic.Uint64

	// Per-kernel verification merges and pre-verify pruned candidates
	// (verify_kernel_* / verify_candidates_pruned_total in /metrics).
	KernelLinear atomic.Uint64
	KernelGallop atomic.Uint64
	KernelBitset atomic.Uint64
	Pruned       atomic.Uint64

	// Tree-mode probe work (verify_tree_* in /metrics).
	TreeProbes         atomic.Uint64
	TreeNodesVisited   atomic.Uint64
	TreeSubtreesPruned atomic.Uint64
	TreeCandsAvoided   atomic.Uint64
	TreeNodes          atomic.Uint64
}

// PublishLive makes the index mirror its counters into ls after every
// processed record. Pass nil to stop publishing.
func (bx *Index) PublishLive(ls *LiveStats) { bx.live = ls }

// publish refreshes the live mirror (no-op unless PublishLive was called).
// It runs once per probe — the one operation every per-record path (Step,
// Process, Load) performs exactly once — so Records counts probes.
func (bx *Index) publish() {
	if bx.live == nil {
		return
	}
	bx.live.Records.Add(1)
	bx.live.Candidates.Store(bx.stats.MemberChecks)
	bx.live.Verified.Store(bx.stats.Verified)
	bx.live.Results.Store(bx.stats.Results)
	bx.live.Members.Store(uint64(len(bx.fifo) - bx.head))
	bx.live.KernelLinear.Store(bx.stats.KernelLinear)
	bx.live.KernelGallop.Store(bx.stats.KernelGallop)
	bx.live.KernelBitset.Store(bx.stats.KernelBitset)
	bx.live.Pruned.Store(bx.stats.Pruned())
	bx.live.TreeProbes.Store(bx.stats.TreeProbes)
	bx.live.TreeNodesVisited.Store(bx.stats.TreeNodesVisited)
	bx.live.TreeSubtreesPruned.Store(bx.stats.TreeSubtreesPruned)
	bx.live.TreeCandsAvoided.Store(bx.stats.TreeCandsAvoided)
	bx.live.TreeNodes.Store(bx.stats.TreeNodes)
}

// finishProbe is the per-probe epilogue every probe path runs exactly
// once: refresh the live mirror, then give the kernel adapter its tick.
func (bx *Index) finishProbe() {
	bx.publish()
	bx.adaptTick()
}

// Process runs one full streaming step for r: evict expired members, probe
// and verify against live bundles, emit every match, then insert r into the
// bundle of its most similar match (or a fresh singleton). This is the
// algorithm the paper's abstract describes: join results guide index
// construction.
func (bx *Index) Process(r *record.Record, emit func(Match)) {
	bx.Evict(r.ID, r.Time)
	best, ok := bx.Probe(r, emit)
	if !ok {
		bx.InsertSingleton(r)
	} else {
		bx.Insert(r, best)
	}
	bx.stats.Records++
}

// Evict expires members outside the window relative to (nowSeq, nowTime).
func (bx *Index) Evict(nowSeq record.ID, nowTime int64) {
	for bx.head < len(bx.fifo) {
		fe := bx.fifo[bx.head]
		rec := fe.m.Rec
		if bx.win.Live(rec.ID, rec.Time, nowSeq, nowTime) {
			break
		}
		fe.m.dead = true
		fe.b.live--
		if bx.maintainTree() {
			l := rec.Len()
			p := bx.params.PrefixLen(l)
			if p > l {
				p = l
			}
			bx.treeRemove(fe.m, rec.Tokens[:p])
		}
		fe.b.removeDead(bx.cfg.Kernel)
		if fe.b.live == 0 {
			bx.retire(fe.b)
		}
		bx.fifo[bx.head] = fifoEntry{}
		bx.head++
		// The bundle, the tree and the fifo have all let go of the
		// member, so the next insert may reuse it.
		bx.al.freeMember(fe.m)
		bx.stats.Evicted++
	}
	if bx.deadPosts >= sweepMinDead && 2*bx.deadPosts > bx.stats.Postings {
		bx.sweepPosts()
	}
	if bx.head > 64 && bx.head*2 > len(bx.fifo) {
		bx.fifo = append(bx.fifo[:0], bx.fifo[bx.head:]...)
		bx.head = 0
	}
}

// Probe finds all live records similar to r, emits them in the canonical
// per-probe order (ascending partner record ID), and returns the best
// match's bundle together with the best similarity (ok=false when there
// is no match). Verification is exact; emitted overlaps are true
// intersection sizes. The match stream and the insertion hint are
// identical for every VerifyMode, Kernel, and pool size.
func (bx *Index) Probe(r *record.Record, emit func(Match)) (best Insertion, ok bool) {
	if bx.useTree() {
		return bx.probeTree(r, emit)
	}
	cands := bx.collectCandidates(r)
	bx.emitBuf = bx.emitBuf[:0]
	for _, b := range cands {
		if m, found := bx.probeBundle(r, b, &bx.stats, bx.emitAppend); found {
			if !ok || betterIns(m, best) {
				best, ok = m, true
			}
		}
	}
	bx.emitCanonical(emit)
	bx.finishProbe()
	return best, ok
}

// emitCanonical flushes the probe's buffered matches in ascending
// partner-ID order — the canonical emission order shared by collect,
// tree, serial, and pooled probes, which is what makes the four paths
// byte-interchangeable. Each partner appears at most once per probe
// (one member per record), so the order is total. The buffer is the
// concatenation of short sorted runs (per-bundle member order, or DFS
// leaf order), which insertion sort exploits.
//
// hotpath: zero-alloc — runs once per probe over the reused buffer.
func (bx *Index) emitCanonical(emit func(Match)) {
	ms := bx.emitBuf
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j].Rec.ID < ms[j-1].Rec.ID; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
	for i := range ms {
		emit(ms[i])
	}
}

// collectCandidates walks the posting lists of r's prefix tokens in
// ascending posting-list-length order (rarest token first), compacts dead
// postings in place, and returns the distinct candidate bundles in that
// discovery order. Rarest-first is the tree-style selectivity heuristic:
// the bundles sharing a rare token are the likeliest (and, sharing more
// with the probe, typically heaviest) candidates, so they front-load the
// verify order — which also hands the pool's work-stealing loop its
// biggest items first. The order is a deterministic function of index
// state (list length, then prefix position), so parallel and serial runs
// still see identical candidate sequences. Dedup is an epoch stamp on the
// bundle (lastSeen vs probeSeq) instead of a per-probe map. The bundle
// length filter runs here too, on the fields the dedup stamp just loaded,
// so a bundle whose live lengths miss r's range never reaches
// probeBundle — the common case on long texts. This is the
// single-writer half of the probe path: every posting-list mutation and
// the probe's packed form happen here, before verification starts, so the
// verify phase that follows — serial in Probe, fanned out in ProbePar —
// reads an index nobody is writing. The returned slice is scratch owned
// by the index and valid until the next collectCandidates call.
//
// hotpath: zero-alloc — runs once per probe; the one posts-map write is
// the compaction store of an existing key (baselined).
func (bx *Index) collectCandidates(r *record.Record) []*Bundle {
	cands := bx.cands[:0]
	bx.probeSeq++
	packIf(bx.cfg.Kernel, &bx.probeP, &bx.probeOK, r.Tokens)
	p := bx.params.PrefixLen(r.Len())
	lo, hi := bx.params.LengthBounds(r.Len())
	walk := bx.walk[:0]
	for i := 0; i < p; i++ {
		list, have := bx.posts[r.Tokens[i]]
		if !have {
			continue
		}
		walk = append(walk, walkRef{pos: int32(i), n: int32(len(list))})
	}
	// Insertion sort by (length, prefix position): prefixes are short and
	// mostly sorted run-to-run, so this beats sort.Slice and allocates
	// nothing.
	for i := 1; i < len(walk); i++ {
		for j := i; j > 0 && (walk[j].n < walk[j-1].n ||
			(walk[j].n == walk[j-1].n && walk[j].pos < walk[j-1].pos)); j-- {
			walk[j], walk[j-1] = walk[j-1], walk[j]
		}
	}
	bx.walk = walk
	for _, wr := range walk {
		tok := r.Tokens[wr.pos]
		list := bx.posts[tok]
		w := 0
		for _, b := range list {
			if b.live == 0 {
				bx.stats.DeadPostSkips++
				bx.stats.Postings--
				bx.deadPosts--
				bx.dropRef(b)
				continue // compact dead bundle posting
			}
			list[w] = b
			w++
			bx.stats.Scanned++
			if b.lastSeen == bx.probeSeq {
				continue
			}
			b.lastSeen = bx.probeSeq
			bx.stats.BundleCands++
			if int(b.maxLen) < lo || int(b.minLen) > hi {
				bx.stats.BundleLenSkip++
				continue
			}
			cands = append(cands, b)
		}
		if w == 0 {
			delete(bx.posts, tok)
			bx.al.keepList(list)
		} else if w != len(list) {
			clear(list[w:])
			bx.posts[tok] = list[:w]
		}
	}
	bx.cands = cands
	return cands
}

// sweepMinDead is the dead posting count below which Evict never sweeps,
// so a small index does not rescan its lists every few evictions.
const sweepMinDead = 1024

// retire accounts for a bundle whose last member just left the window:
// its posting entries are dead from now on, and it lets go of everything
// it points at, since a dead posting can keep the Bundle itself reachable
// until a probe or a sweep compacts it. A bundle no posting reaches (pure
// tree mode keeps no lists) goes straight back to the arena.
func (bx *Index) retire(b *Bundle) {
	bx.deadPosts += uint64(b.refs)
	bx.al.release(b)
	if b.refs == 0 {
		bx.al.freeBundle(b)
	}
}

// dropRef accounts for one dead posting entry of b that compaction just
// dropped; the last one hands b back to the arena.
func (bx *Index) dropRef(b *Bundle) {
	b.refs--
	if b.refs == 0 {
		bx.al.freeBundle(b)
	}
}

// sweepPosts drops every dead entry from every posting list.
// collectCandidates compacts only the lists a probe walks, so without
// the sweep a token that never shows up in a probe prefix again — the
// long tail of the vocabulary, or every token while auto mode probes
// through the tree — would pin its dead bundles, and through them their
// memory, for the life of the index: the live heap would grow with the
// stream instead of with the window. Evict sweeps once dead entries
// outnumber live ones, so each sweep is paid for by the bundle deaths
// since the last one and the lists stay within twice their live size.
// Compaction keeps list order, so probes see the same candidates.
func (bx *Index) sweepPosts() {
	for tok, list := range bx.posts {
		w := 0
		for _, b := range list {
			if b.live != 0 {
				list[w] = b
				w++
			} else {
				bx.dropRef(b)
			}
		}
		if w == len(list) {
			continue
		}
		dropped := uint64(len(list) - w)
		bx.stats.DeadPostSkips += dropped
		bx.stats.Postings -= dropped
		if w == 0 {
			delete(bx.posts, tok)
			bx.al.keepList(list)
		} else {
			clear(list[w:])
			bx.posts[tok] = list[:w]
		}
	}
	bx.deadPosts = 0
}

// Insertion names the bundle an incoming record should join. At is the
// record ID of the best match backing the hint: the canonical rule —
// maximum similarity, ties to the smallest partner ID — makes the pick a
// pure function of the match set, so every verify mode, kernel, and pool
// size drives the identical grouping evolution.
type Insertion struct {
	Bundle *Bundle
	Sim    float64
	At     record.ID
}

// betterIns reports whether insertion hint a beats b under the canonical
// rule. Similarities are computed from identical (overlap, length)
// inputs on every path, so ties compare bitwise-equal floats.
func betterIns(a, b Insertion) bool {
	return a.Sim > b.Sim || (a.Sim == b.Sim && a.At < b.At)
}

// probeBundle filters and verifies r against one candidate bundle, emitting
// matches and returning the best-match insertion hint. b must come from
// collectCandidates, which already dropped every bundle whose live length
// range misses r's. Work counters go to st — &bx.stats on the serial path,
// a per-goroutine VerifyCtx on the pool path — so concurrent verifiers
// never share a counter cache line.
//
// parcheck: runs on the verifier pool. It must only read the index (params,
// cfg, postings, bundles): any index mutation belongs in collectCandidates
// or the insert/evict path, which run strictly before and after the fanned
// verify phase.
//
// hotpath: zero-alloc — runs once per candidate bundle per probe; matches
// are emitted as value structs through the emit callback.
func (bx *Index) probeBundle(r *record.Record, b *Bundle, st *Stats, emit func(Match)) (Insertion, bool) {
	la := r.Len()
	lo, hi := bx.params.LengthBounds(la)
	bmin, bmax := int(b.minLen), int(b.maxLen)
	reqMin := bx.minRequired(la, bmin, lo)

	// Singleton fast path: the union is the member, so a single
	// early-terminating merge both filters and verifies, and the member
	// itself is read only for a match.
	if b.live == 1 {
		st.MemberChecks++
		o, steps, ok := bx.overlapKernelBounded(st, r.Tokens, &bx.probeP, bx.probeOK, b.Union, &b.unionP, b.unionOK, reqMin)
		st.SingletonFast++
		st.VerifySteps += uint64(steps)
		st.Verified++
		if !ok {
			return Insertion{}, false
		}
		m := b.Members[0]
		sim := similarity.FromOverlap(bx.params.Func, o, la, bmin)
		st.Results++
		emit(Match{Rec: m.Rec, Overlap: o, Sim: sim})
		return Insertion{Bundle: b, Sim: sim, At: m.Rec.ID}, true
	}

	// Quick size bound before any merge: overlap(r, y) <= min(la, ly,
	// |Union|) for every member y, and ly <= min(bmax, hi) over the
	// members that survive the length check, while required(y) >= reqMin.
	// When even the best case falls short, the whole bundle is pruned for
	// the cost of three comparisons.
	quickUB := la
	if h := min(bmax, hi); h < quickUB {
		quickUB = h
	}
	if lu := len(b.Union); lu < quickUB {
		quickUB = lu
	}
	if quickUB < reqMin {
		st.BundleQuickSkip++
		return Insertion{}, false
	}

	// Bundle-level union upper bound: overlap(r, y) <= overlap(r, Union)
	// for every member y. One early-terminating merge prunes the whole
	// bundle; on success the overlap is exact and reused per member.
	unionO, usteps, uok := bx.overlapKernelBounded(st, r.Tokens, &bx.probeP, bx.probeOK, b.Union, &b.unionP, b.unionOK, reqMin)
	st.UnionOverlaps++
	st.UnionSteps += uint64(usteps)
	if !uok {
		st.BundleUBSkip++
		return Insertion{}, false
	}

	var (
		coreO     int
		coreSteps int
		haveCore  bool
		best      Insertion
		found     bool
	)
	for _, m := range b.Members {
		if m.dead {
			continue
		}
		lb := m.Rec.Len()
		if lb < lo || lb > hi {
			continue
		}
		st.MemberChecks++
		req := bx.params.RequiredOverlap(la, lb)
		ub := unionO
		if lb < ub {
			ub = lb
		}
		if ub < req {
			st.MemberUBSkip++
			continue
		}
		var o int
		if bx.cfg.OneByOneVerify {
			var steps int
			o, steps = bx.overlapKernel(st, r.Tokens, &bx.probeP, bx.probeOK, m.Rec.Tokens, &m.full, m.fullOK)
			st.VerifySteps += uint64(steps)
		} else {
			if !haveCore {
				coreO, coreSteps = bx.overlapKernel(st, r.Tokens, &bx.probeP, bx.probeOK, b.Core, &b.coreP, b.coreOK)
				haveCore = true
				st.CoreOverlaps++
				st.CoreSteps += uint64(coreSteps)
				st.VerifySteps += uint64(coreSteps)
			}
			// Delta bound: overlap(r, y) = coreO + overlap(r, Delta), and
			// overlap(r, Delta) <= min(|Delta|, la - coreO) because Delta
			// is disjoint from Core while r holds only la tokens, coreO of
			// them already matched in Core. Members whose delta cannot
			// close the gap skip the delta merge entirely.
			dUB := len(m.Delta)
			if rest := la - coreO; rest < dUB {
				dUB = rest
			}
			if coreO+dUB < req {
				st.MemberDeltaSkip++
				continue
			}
			// Bounded delta merge: when it fails the member cannot match
			// (no emission, so the exact size is not needed); when it
			// passes dO is exact and o below is the true overlap.
			dO, dSteps, dok := bx.overlapKernelBounded(st, r.Tokens, &bx.probeP, bx.probeOK, m.Delta, &m.deltaP, m.deltaOK, req-coreO)
			st.VerifySteps += uint64(dSteps)
			if !dok {
				st.Verified++
				continue
			}
			o = coreO + dO
		}
		st.Verified++
		if o < req {
			continue
		}
		sim := similarity.FromOverlap(bx.params.Func, o, la, lb)
		st.Results++
		emit(Match{Rec: m.Rec, Overlap: o, Sim: sim})
		if !found || betterIns(Insertion{Sim: sim, At: m.Rec.ID}, best) {
			best, found = Insertion{Bundle: b, Sim: sim, At: m.Rec.ID}, true
		}
	}
	return best, found
}

// mergeVerify folds the verify-phase counters a VerifyCtx accumulated into
// s. Only the counters probeBundle writes are listed: everything else in
// Stats — BundleLenSkip included, since the length filter runs in the
// posting scan — belongs to the single-writer collect/insert/evict path
// and never appears in a per-goroutine context. All listed counters are
// commutative sums, so the fold order across contexts cannot change the
// totals — a parallel run reports exactly the sequential numbers.
func (s *Stats) mergeVerify(o *Stats) {
	s.BundleUBSkip += o.BundleUBSkip
	s.MemberChecks += o.MemberChecks
	s.MemberUBSkip += o.MemberUBSkip
	s.Verified += o.Verified
	s.Results += o.Results
	s.VerifySteps += o.VerifySteps
	s.CoreSteps += o.CoreSteps
	s.UnionOverlaps += o.UnionOverlaps
	s.UnionSteps += o.UnionSteps
	s.CoreOverlaps += o.CoreOverlaps
	s.SingletonFast += o.SingletonFast
	s.KernelLinear += o.KernelLinear
	s.KernelGallop += o.KernelGallop
	s.KernelBitset += o.KernelBitset
	s.BundleQuickSkip += o.BundleQuickSkip
	s.MemberDeltaSkip += o.MemberDeltaSkip
	s.TreeNodesVisited += o.TreeNodesVisited
	s.TreeSubtreesPruned += o.TreeSubtreesPruned
	s.TreeCandsAvoided += o.TreeCandsAvoided
	s.TreeLeafUBSkip += o.TreeLeafUBSkip
	s.TreeSuffixSkip += o.TreeSuffixSkip
}

// Dump visits every live member record in arrival order; returning false
// stops the walk.
func (bx *Index) Dump(visit func(*record.Record) bool) {
	for i := bx.head; i < len(bx.fifo); i++ {
		fe := bx.fifo[i]
		if fe.m == nil || fe.m.dead {
			continue
		}
		if !visit(fe.m.Rec) {
			return
		}
	}
}

// minRequired returns the smallest required overlap over member lengths
// of at least max(bmin, lo). For all supported functions the required
// overlap is nondecreasing in partner length, so the minimum is at the
// smallest compatible length.
func (bx *Index) minRequired(la, bmin, lo int) int {
	l := bmin
	if lo > l {
		l = lo
	}
	return bx.params.RequiredOverlap(la, l)
}

// InsertSingleton places r into a fresh singleton bundle (the no-match
// insertion path).
func (bx *Index) InsertSingleton(r *record.Record) {
	bx.Insert(r, Insertion{})
}

// Insert places r into best's bundle when grouping conditions hold,
// otherwise into a fresh singleton bundle, and extends the posting lists
// with the record's unposted prefix tokens.
func (bx *Index) Insert(r *record.Record, best Insertion) {
	p := bx.params.PrefixLen(r.Len())
	var (
		target  *Bundle
		newCore []tokens.Rank
	)
	if best.Bundle != nil && best.Sim >= bx.cfg.GroupThreshold-1e-12 {
		b := best.Bundle
		if int(b.live) < bx.cfg.MaxMembers {
			// Trial intersection in reused scratch: add() consumes it when
			// the membership is accepted, so the merge runs exactly once
			// and the rejected case allocates nothing.
			bx.trial = similarity.IntersectInto(bx.trial[:0], b.Core, r.Tokens)
			if float64(len(bx.trial)) >= bx.cfg.MinCoreFrac*float64(r.Len()) {
				target = b
				newCore = bx.trial
			} else {
				bx.stats.GroupRejectLen++
			}
		} else {
			bx.stats.GroupRejectLen++
		}
	}
	if target == nil {
		bx.nextID++
		target = bx.al.bundle()
		target.ID = bx.nextID
		bx.stats.Bundles++
		bx.stats.LiveBundles++
	} else {
		bx.stats.Appends++
	}
	newPosts := target.add(&bx.al, bx.cfg.Kernel, r, p, newCore, bx.newPosts)
	bx.newPosts = newPosts
	if bx.cfg.VerifyMode != VerifyTree {
		// Pure tree mode never reads posting lists — and never compacts
		// them (compaction lives in collectCandidates), so extending them
		// would leak dead postings. Auto maintains both structures.
		for _, tok := range newPosts {
			list, have := bx.posts[tok]
			if !have {
				list = bx.al.postingList()
			}
			bx.posts[tok] = append(list, target)
		}
		target.refs += int32(len(newPosts))
		bx.stats.Postings += uint64(len(newPosts))
	}
	if bx.maintainTree() {
		pl := p
		if pl > r.Len() {
			pl = r.Len()
		}
		bx.treeInsert(target, target.Members[len(target.Members)-1], r.Tokens[:pl])
	}
	if uint64(target.live) > bx.stats.MaxBundleSize {
		bx.stats.MaxBundleSize = uint64(target.live)
	}
	bx.fifo = append(bx.fifo, fifoEntry{b: target, m: target.Members[len(target.Members)-1]})
}
