// Package bundle implements the bundle-based streaming join: the join
// results of each incoming record guide index construction by grouping
// similar records into bundles on the fly. A bundle factors its members
// into a shared core (tokens common to all members) and small per-member
// deltas, so that
//
//   - filtering cost is shared: one posting per (bundle, token) instead of
//     one per (record, token), one union-overlap upper bound prunes all
//     members at once, and
//   - verification cost is shared: overlap(probe, member) =
//     overlap(probe, core) + overlap(probe, delta), so the core term is
//     computed once per bundle and each member costs only its token
//     difference.
//
// Both identities are exact because core and delta are disjoint and their
// union is the member's token set.
package bundle

import (
	"repro/internal/tokens"

	"repro/internal/record"
	"repro/internal/similarity"
)

// Member is one record inside a bundle together with its token difference
// from the bundle core.
type Member struct {
	Rec   *record.Record
	Delta []tokens.Rank // Rec.Tokens \ Core, ascending
	dead  bool

	// Cached bitset forms for the kernelized verify path (see kernels.go).
	// full packs Rec.Tokens, delta packs Delta; the OK flags distinguish
	// "not packed under this kernel config" from "packed and current".
	// Maintained only by the single-writer insert/evict phases.
	full    similarity.Packed
	fullOK  bool
	deltaP  similarity.Packed
	deltaOK bool
}

// Bundle groups records that joined with one another. Invariants:
// Core ⊆ member.Rec.Tokens for every member; member.Delta = member tokens
// minus Core; Union ⊇ member tokens for every member (Union may be a strict
// superset after evictions, which is safe because it is only used as an
// upper bound); a bundle with one live member has Union equal to that
// member's tokens, so the singleton verify path reads Union in place of
// the member. Both packed forms of that set are built under the same
// kernel config, so unionOK equals the member's fullOK unless adaptive
// tuning moved the bitset cutoff in between (which changes only the
// kernel picked, never an overlap).
//
// Field order is layout: the fields collectCandidates touches for every
// posting (ID, live, refs, lastSeen, minLen, maxLen) share the first
// cache line with Union — compacting a stale posting reads live and
// writes refs of a bundle that retired long ago, so they share a word —
// and the flags are packed at the end so the struct stays at 256 bytes.
// The arena reuses a retired bundle once no posting list reaches it, so
// the bundles in the heap track the live window plus the retired ones
// that still have stale postings; every added word is paid for each of
// them.
type Bundle struct {
	ID   uint64
	live int32
	// refs counts the posting-list entries that point at this bundle. A
	// retired bundle goes back to the arena when it drops to zero (see
	// Index.dropRef); until then a stale posting may still reach it.
	refs int32
	// lastSeen is the probe sequence number of the last collectCandidates
	// call that visited this bundle — the per-probe dedup stamp that
	// replaced the old seen map (an epoch check beats a map insert per
	// candidate posting).
	lastSeen uint64
	// minLen and maxLen are the live member length extremes (0 when the
	// bundle is empty): add widens them, removeDead recomputes them.
	minLen, maxLen int32

	Union   []tokens.Rank
	Core    []tokens.Rank
	Members []*Member

	// posted tracks the tokens this bundle already has postings under so
	// member additions do not duplicate postings. Prefixes are short, so a
	// small slice with linear dedup beats a map (profiled: the map was the
	// top allocation site).
	posted []tokens.Rank
	// peak tracks the max member count since the last shrink rebuild.
	peak int

	// Cached bitset forms of Core and Union plus their validity flags,
	// rebuilt by the single-writer insert/evict phases whenever the
	// underlying slice changes (see kernels.go).
	coreP   similarity.Packed
	unionP  similarity.Packed
	coreOK  bool
	unionOK bool
	// unionOwned reports whether Union's backing array belongs to this
	// bundle. A singleton aliases its record's immutable token slice, so
	// in-place union growth must first copy into owned storage.
	unionOwned bool
}

func (b *Bundle) hasPosted(tok tokens.Rank) bool {
	for _, p := range b.posted {
		if p == tok {
			return true
		}
	}
	return false
}

// Live reports the number of unevicted members.
func (b *Bundle) Live() int { return int(b.live) }

// MinLen and MaxLen return the live member length extremes; both return 0
// when the bundle is empty.
func (b *Bundle) MinLen() int { return int(b.minLen) }

// MaxLen returns the largest live member length.
func (b *Bundle) MaxLen() int { return int(b.maxLen) }

// intersect returns a ∩ b (both ascending).
func intersect(a, b []tokens.Rank) []tokens.Rank {
	out := make([]tokens.Rank, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// subtract returns a \ b (both ascending).
func subtract(a, b []tokens.Rank) []tokens.Rank {
	out := make([]tokens.Rank, 0, len(a))
	i, j := 0, 0
	for i < len(a) {
		for j < len(b) && b[j] < a[i] {
			j++
		}
		if j < len(b) && b[j] == a[i] {
			i++
			j++
			continue
		}
		out = append(out, a[i])
		i++
	}
	return out
}

// union returns a ∪ b (both ascending).
func union(a, b []tokens.Rank) []tokens.Rank {
	out := make([]tokens.Rank, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// merge returns a ∪ b assuming a ∩ b = ∅ (used to reconstitute member
// token sets from core+delta in tests).
func merge(a, b []tokens.Rank) []tokens.Rank { return union(a, b) }

// overlapSteps computes |a∩b| and the number of merge iterations spent, the
// unit the experiment harness uses to compare batch and one-by-one
// verification cost.
func overlapSteps(a, b []tokens.Rank) (o, steps int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		steps++
		switch {
		case a[i] == b[j]:
			o++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return o, steps
}

// overlapStepsBounded behaves like overlapSteps but aborts once required
// becomes unreachable. ok=false means the requirement failed and o is a
// lower bound; ok=true means o is the exact intersection size.
func overlapStepsBounded(a, b []tokens.Rank, required int) (o, steps int, ok bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		rest := len(a) - i
		if lb := len(b) - j; lb < rest {
			rest = lb
		}
		if o+rest < required {
			return o, steps, false
		}
		steps++
		switch {
		case a[i] == b[j]:
			o++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return o, steps, o >= required
}

// unionInto merges a ∪ b (both ascending) onto dst, appending after dst's
// existing elements, and returns the extended slice. When dst has spare
// capacity the merge is allocation-free; dst may share its backing array
// with a as long as a sits at or beyond the write region (the in-place
// idiom unionAdd uses), because every element of a is read in the same
// iteration that can first overwrite it.
func unionInto(dst, a, b []tokens.Rank) []tokens.Rank {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		default:
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// unionAdd grows Union by t's tokens in place when the bundle owns the
// backing array and it has room; otherwise it reallocates with headroom
// (so per-insert union growth is amortized allocation-free). The in-place
// path shifts the old union to the tail of the buffer and forward-merges
// into the front: the write cursor can never pass the shifted read cursor
// because the merge emits at most one element per element consumed.
func (b *Bundle) unionAdd(t []tokens.Rank) {
	need := len(b.Union) + len(t)
	if !b.unionOwned || cap(b.Union) < need {
		buf := make([]tokens.Rank, 0, need*2)
		b.Union = unionInto(buf, b.Union, t)
		b.unionOwned = true
		return
	}
	u := b.Union
	buf := u[:need]
	shifted := buf[need-len(u):]
	copy(shifted, u)
	b.Union = unionInto(buf[:0], shifted, t)
}

// add appends r as a member: the core shrinks to core ∩ r, existing deltas
// absorb the evicted core tokens, and the union grows by r's tokens.
// newCore must equal core ∩ r.Tokens when the bundle is non-empty — the
// caller already computed it for the grouping check, so add reuses it
// instead of re-merging; it may alias caller scratch (add copies before
// keeping it) and is ignored for the first member. Members and deltas come
// out of al, and every token set whose slice changed gets its cached
// bitset form rebuilt under kern. add appends the tokens of r's prefix
// that were not yet posted for this bundle to posts (caller-owned
// scratch, truncated first) and returns it, so the caller can extend the
// posting lists.
func (b *Bundle) add(al *alloc, kern similarity.KernelConfig, r *record.Record, prefixLen int, newCore, posts []tokens.Rank) (newPostings []tokens.Rank) {
	newPostings = posts[:0]
	if b.live == 0 {
		// Records are immutable, so a singleton bundle can alias the
		// record's token slice; every later mutation path copies before
		// writing (unionAdd checks unionOwned, core shrink reallocates).
		b.Core = r.Tokens
		b.Union = r.Tokens
		b.unionOwned = false
		m := al.member()
		m.Rec = r
		b.Members = append(b.Members, m)
		packIf(kern, &m.full, &m.fullOK, r.Tokens)
		// The singleton verify path reads Union, so pack it exactly like
		// the member's full form: same set, same kernel choice.
		packIf(kern, &b.unionP, &b.unionOK, b.Union)
		b.minLen, b.maxLen = int32(r.Len()), int32(r.Len())
	} else {
		if len(newCore) != len(b.Core) {
			released := similarity.GetRanks()
			*released = similarity.SubtractInto(*released, b.Core, newCore)
			for _, m := range b.Members {
				if m.dead {
					continue
				}
				buf := al.grab(len(m.Delta) + len(*released))
				m.Delta = unionInto(buf, m.Delta, *released)
				al.commit(len(m.Delta))
				packIf(kern, &m.deltaP, &m.deltaOK, m.Delta)
			}
			b.Core = append(make([]tokens.Rank, 0, len(newCore)), newCore...)
			similarity.PutRanks(released)
		}
		b.unionAdd(r.Tokens)
		m := al.member()
		m.Rec = r
		buf := al.grab(r.Len())
		m.Delta = similarity.SubtractInto(buf, r.Tokens, b.Core)
		al.commit(len(m.Delta))
		b.Members = append(b.Members, m)
		packIf(kern, &m.full, &m.fullOK, r.Tokens)
		packIf(kern, &m.deltaP, &m.deltaOK, m.Delta)
		// Core now serves the shared-verification identity (the singleton
		// fast path never consults it), so (re)pack it with the union: the
		// union always grew, and the core cache may predate this member or
		// the shrink above.
		packIf(kern, &b.coreP, &b.coreOK, b.Core)
		packIf(kern, &b.unionP, &b.unionOK, b.Union)
		if l := int32(r.Len()); l < b.minLen {
			b.minLen = l
		} else if l > b.maxLen {
			b.maxLen = l
		}
	}
	b.live++
	if int(b.live) > b.peak {
		b.peak = int(b.live)
	}
	for i := 0; i < prefixLen && i < r.Len(); i++ {
		tok := r.Tokens[i]
		if !b.hasPosted(tok) {
			b.posted = append(b.posted, tok)
			newPostings = append(newPostings, tok)
		}
	}
	return newPostings
}

// removeDead drops dead members, recomputes the live length extremes and,
// when the bundle has shrunk to half its peak, rebuilds Union from the
// survivors (refreshing its cached bitset form under kern). A bundle that
// drops to one member always rebuilds — peak is at least the two members
// it had — so a singleton's Union is exactly its member's tokens.
func (b *Bundle) removeDead(kern similarity.KernelConfig) {
	w := 0
	var lo, hi int32
	for _, m := range b.Members {
		if !m.dead {
			b.Members[w] = m
			w++
			l := int32(m.Rec.Len())
			if lo == 0 || l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
	}
	clear(b.Members[w:])
	b.Members = b.Members[:w]
	b.minLen, b.maxLen = lo, hi
	if b.live == 0 || w == 0 {
		return
	}
	if w*2 <= b.peak {
		u := append([]tokens.Rank(nil), b.Members[0].Rec.Tokens...)
		for _, m := range b.Members[1:] {
			u = union(u, m.Rec.Tokens)
		}
		b.Union = u
		b.unionOwned = true
		b.peak = w
		packIf(kern, &b.unionP, &b.unionOK, b.Union)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
