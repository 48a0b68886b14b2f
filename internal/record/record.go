// Package record defines the record model shared by every stage of the
// streaming set-similarity join: a record is an identified, timestamped set
// of token ranks sorted by the global frequency ordering (rarest first).
package record

import (
	"fmt"
	"slices"

	"repro/internal/tokens"
)

// ID identifies a record uniquely within a stream. IDs are assigned in
// arrival order by the ingestion layer, so comparing IDs compares arrival
// times.
type ID uint64

// Record is an immutable token set flowing through the join. Tokens holds
// deduplicated ranks in ascending global order; Seq is the arrival sequence
// number (== ID for generated streams); Time is an optional event timestamp
// in stream ticks used by time-based windows.
type Record struct {
	ID     ID
	Time   int64
	Tokens []tokens.Rank
}

// Len returns the set size.
func (r *Record) Len() int { return len(r.Tokens) }

// String renders a compact debugging form.
func (r *Record) String() string {
	return fmt.Sprintf("record{id=%d len=%d t=%d}", r.ID, len(r.Tokens), r.Time)
}

// Overlap returns the size of the intersection of the two records' token
// sets using a linear merge; both must be in ascending rank order.
func (r *Record) Overlap(s *Record) int {
	a, b := r.Tokens, s.Tokens
	i, j, o := 0, 0, 0
	for i < len(a) && j < len(b) {
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
	return o
}

// Builder converts raw text into Records: tokenize, intern, map to ranks,
// dedup, observe frequencies, and stamp with the next ID. A Builder owns its
// dictionary and ordering; it is not safe for concurrent use.
type Builder struct {
	Dict     *tokens.Dictionary
	Order    *tokens.Ordering
	Tok      tokens.Tokenizer
	nextID   ID
	nextTime int64
	// Scratch reused across FromText calls: the words of the current text
	// and their rank<<32|token keys.
	words []string
	keys  []uint64
}

// NewBuilder returns a Builder over an already-frozen ordering. Use
// BuildOrderingFromSample to produce dict and order from a text sample.
func NewBuilder(dict *tokens.Dictionary, order *tokens.Ordering, tok tokens.Tokenizer) *Builder {
	return &Builder{Dict: dict, Order: order, Tok: tok}
}

// BuildOrderingFromSample interns and counts every token of every sample
// text, then freezes a frequency ordering. It is the offline bootstrapping
// step: streams built afterwards map unseen tokens to post-frozen ranks.
func BuildOrderingFromSample(tok tokens.Tokenizer, sample []string) (*tokens.Dictionary, *tokens.Ordering) {
	dict := tokens.NewDictionary()
	var words []string
	var ids []tokens.Token
	for _, text := range sample {
		words = tok.Tokenize(words[:0], text)
		ids = ids[:0]
		for _, w := range words {
			ids = append(ids, dict.Intern(w))
		}
		slices.Sort(ids)
		for _, id := range slices.Compact(ids) {
			dict.Observe(id)
		}
	}
	return dict, tokens.NewOrdering(dict)
}

// SetCursor positions the builder's ID and time counters; the snapshot
// restore path uses it so a restored pipeline continues numbering where
// the original stopped.
func (b *Builder) SetCursor(nextID ID, nextTime int64) {
	b.nextID = nextID
	b.nextTime = nextTime
}

// FromText builds the next record from raw text, accruing document
// frequencies in the dictionary as it goes (the frozen ordering is
// unaffected until an explicit refresh rebuilds it from the accumulated
// counts). Empty token sets yield a record with zero length; callers
// typically drop those. The record's rank slice is the only allocation
// besides the dictionary's copy of each word it interns first.
func (b *Builder) FromText(text string) Record {
	b.words = b.Tok.Tokenize(b.words[:0], text)
	keys := b.keys[:0]
	for _, w := range b.words {
		// Interning and ranking in word order assigns new tokens and
		// post-frozen ranks in first-appearance order.
		id := b.Dict.Intern(w)
		keys = append(keys, uint64(b.Order.RankOf(id))<<32|uint64(id))
	}
	clear(b.words) // do not pin text until the next call
	// Ranks and tokens correspond one to one, so equal keys are exactly
	// repeated tokens and the sorted keys are the record's ascending ranks.
	slices.Sort(keys)
	keys = slices.Compact(keys)
	ranks := make([]tokens.Rank, len(keys))
	for i, k := range keys {
		b.Dict.Observe(tokens.Token(k))
		ranks[i] = tokens.Rank(k >> 32)
	}
	b.keys = keys
	r := Record{ID: b.nextID, Time: b.nextTime, Tokens: ranks}
	b.nextID++
	b.nextTime++
	return r
}

// FromRanks builds the next record directly from precomputed ranks (used by
// synthetic workload generators). The slice is deduplicated and sorted in
// place and retained by the record.
func (b *Builder) FromRanks(ranks []tokens.Rank) Record {
	ranks = tokens.Dedup(ranks)
	r := Record{ID: b.nextID, Time: b.nextTime, Tokens: ranks}
	b.nextID++
	b.nextTime++
	return r
}

// Pair is an emitted join result: two record IDs with their similarity.
// First < Second always holds so pairs compare and deduplicate cheaply.
type Pair struct {
	First, Second ID
	Sim           float64
}

// NewPair normalizes the ID order.
func NewPair(a, b ID, sim float64) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{First: a, Second: b, Sim: sim}
}

// String implements fmt.Stringer.
func (p Pair) String() string {
	return fmt.Sprintf("(%d,%d:%.3f)", p.First, p.Second, p.Sim)
}
