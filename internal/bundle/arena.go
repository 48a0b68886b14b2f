package bundle

import "repro/internal/tokens"

// alloc is the index's slab allocator for the insert path. Members,
// bundles and delta slices are small and allocated once per record, which
// made them the top allocation sites in the end-to-end profile; carving
// them out of chunked slabs turns one heap allocation per object into one
// per chunk. Slabs are owned by the single-writer index goroutine and are
// never freed individually — retired objects keep their chunk alive until
// the whole chunk ages out with the window. That bound holds only because
// nothing else keeps a retired bundle reachable: Index.retire empties it
// and Index.sweepPosts drops the posting entries no probe compacts.
type alloc struct {
	members []Member
	bundles []Bundle
	chunk   []tokens.Rank
	used    int
}

const (
	memberChunk = 256
	bundleChunk = 128
	rankChunk   = 8192
)

// member hands out a zeroed *Member from the slab.
func (al *alloc) member() *Member {
	if len(al.members) == 0 {
		al.members = make([]Member, memberChunk)
	}
	m := &al.members[0]
	al.members = al.members[1:]
	return m
}

// bundle hands out a zeroed *Bundle from the slab.
func (al *alloc) bundle() *Bundle {
	if len(al.bundles) == 0 {
		al.bundles = make([]Bundle, bundleChunk)
	}
	b := &al.bundles[0]
	al.bundles = al.bundles[1:]
	return b
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
	return al.chunk[al.used:al.used : al.used+n]
}

// commit advances the chunk cursor past the n ranks the caller kept.
func (al *alloc) commit(n int) { al.used += n }
