package bundle

import (
	"repro/internal/similarity"
	"repro/internal/tokens"
)

// alloc is the index's allocator for the insert path. Members, bundles
// and delta slices are small and needed once per record, which made them
// the top allocation sites in the end-to-end profile. The sliding window
// retires records in the order it admitted them, so the steady state can
// run on what the window hands back:
//
//   - an evicted member goes onto a free stack once Evict has dropped it
//     from its bundle, the tree and the fifo;
//   - a retired bundle goes onto a free stack once no posting list can
//     reach it (Bundle.refs reaches zero, see Index.dropRef), and the
//     Members and posted arrays it let go of at retirement are handed to
//     the next bundle created;
//   - a posting list emptied by compaction is kept for the next token that
//     needs a fresh list.
//
// Only when a stack is empty does the allocator carve a new object from a
// chunked slab (one heap allocation per chunk, not per object). Delta
// ranks come from a bump-allocated rank chunk that is never recycled:
// each chunk becomes garbage once every delta carved from it has been
// replaced or evicted. Everything here is owned by the single-writer
// index goroutine.
type alloc struct {
	members []Member
	bundles []Bundle
	chunk   []tokens.Rank
	used    int

	freeMembers []*Member
	freeBundles []*Bundle
	memberLists [][]*Member
	postedLists [][]tokens.Rank
	postLists   [][]*Bundle
}

const (
	memberChunk = 256
	bundleChunk = 128
	rankChunk   = 8192
)

// member hands out a zeroed *Member, recycled when one is free.
func (al *alloc) member() *Member {
	if n := len(al.freeMembers); n > 0 {
		m := al.freeMembers[n-1]
		al.freeMembers = al.freeMembers[:n-1]
		return m
	}
	if len(al.members) == 0 {
		al.members = make([]Member, memberChunk)
	}
	m := &al.members[0]
	al.members = al.members[1:]
	return m
}

// freeMember takes back an evicted member that nothing references any
// more. It is zeroed now, so it pins no record while it waits; only the
// backing arrays of its packed forms survive, for the next member to
// pack into.
func (al *alloc) freeMember(m *Member) {
	*m = Member{full: emptied(m.full), deltaP: emptied(m.deltaP)}
	al.freeMembers = append(al.freeMembers, m)
}

// emptied returns p with its length cleared and its capacity kept.
func emptied(p similarity.Packed) similarity.Packed {
	return similarity.Packed{Words: p.Words[:0], Bits: p.Bits[:0]}
}

// bundle hands out a zeroed *Bundle, recycled when one is free, with the
// Members and posted arrays of an earlier retired bundle when there are
// any.
func (al *alloc) bundle() *Bundle {
	var b *Bundle
	if n := len(al.freeBundles); n > 0 {
		b = al.freeBundles[n-1]
		al.freeBundles = al.freeBundles[:n-1]
	} else {
		if len(al.bundles) == 0 {
			al.bundles = make([]Bundle, bundleChunk)
		}
		b = &al.bundles[0]
		al.bundles = al.bundles[1:]
	}
	if n := len(al.memberLists); n > 0 {
		b.Members = al.memberLists[n-1]
		al.memberLists = al.memberLists[:n-1]
	}
	if n := len(al.postedLists); n > 0 {
		b.posted = al.postedLists[n-1]
		al.postedLists = al.postedLists[:n-1]
	}
	return b
}

// release detaches everything a bundle whose last member has been evicted
// points at, keeping its (already cleared) Members array and its posted
// array for the next bundle. Nothing reads them again: probes skip a
// bundle with no live members and no insertion targets one.
func (al *alloc) release(b *Bundle) {
	if cap(b.Members) > 0 {
		al.memberLists = append(al.memberLists, b.Members[:0])
	}
	if cap(b.posted) > 0 {
		al.postedLists = append(al.postedLists, b.posted[:0])
	}
	b.Core, b.Union, b.Members, b.posted = nil, nil, nil, nil
	b.coreP, b.unionP = similarity.Packed{}, similarity.Packed{}
	b.coreOK, b.unionOK, b.unionOwned = false, false, false
}

// freeBundle takes back a released bundle that no posting list reaches.
func (al *alloc) freeBundle(b *Bundle) {
	*b = Bundle{}
	al.freeBundles = append(al.freeBundles, b)
}

// postingList returns an empty posting list, reusing one that compaction
// emptied when there is one (nil otherwise; append allocates).
func (al *alloc) postingList() []*Bundle {
	n := len(al.postLists)
	if n == 0 {
		return nil
	}
	l := al.postLists[n-1]
	al.postLists = al.postLists[:n-1]
	return l
}

// keepList takes back a posting list compaction just emptied. Its entries
// are cleared so it pins no bundle.
func (al *alloc) keepList(l []*Bundle) {
	clear(l)
	al.postLists = append(al.postLists, l[:0])
}

// grab reserves room for up to n ranks and returns an empty slice with
// exactly that capacity (three-index, so an append past the reservation
// can never clobber a neighbour — it falls back to a fresh allocation
// instead). Callers append at most n elements and then commit the length
// they actually used; the unused remainder of the reservation is
// reclaimed for the next grab.
func (al *alloc) grab(n int) []tokens.Rank {
	if cap(al.chunk)-al.used < n {
		c := rankChunk
		if n > c {
			c = n
		}
		al.chunk = make([]tokens.Rank, c)
		al.used = 0
	}
	return al.chunk[al.used : al.used : al.used+n]
}

// commit advances the chunk cursor past the n ranks the caller kept.
func (al *alloc) commit(n int) { al.used += n }
