package record

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/tokens"
)

func buildTestBuilder(sample []string) *Builder {
	dict, order := BuildOrderingFromSample(tokens.WordTokenizer{}, sample)
	return NewBuilder(dict, order, tokens.WordTokenizer{})
}

func TestFromTextAssignsSequentialIDs(t *testing.T) {
	b := buildTestBuilder([]string{"a b c"})
	r1 := b.FromText("a b")
	r2 := b.FromText("b c")
	if r1.ID != 0 || r2.ID != 1 {
		t.Fatalf("ids: got %d,%d want 0,1", r1.ID, r2.ID)
	}
	if r1.Time != 0 || r2.Time != 1 {
		t.Fatalf("times: got %d,%d want 0,1", r1.Time, r2.Time)
	}
}

func TestFromTextTokensSortedDeduped(t *testing.T) {
	b := buildTestBuilder([]string{"the the the quick brown", "the fox", "the dog"})
	r := b.FromText("the quick the quick fox")
	if len(r.Tokens) != 3 {
		t.Fatalf("want 3 distinct tokens, got %d: %v", len(r.Tokens), r.Tokens)
	}
	if !sort.SliceIsSorted(r.Tokens, func(i, j int) bool { return r.Tokens[i] < r.Tokens[j] }) {
		t.Fatalf("tokens not sorted: %v", r.Tokens)
	}
}

func TestRareTokensSortBeforeCommonOnes(t *testing.T) {
	// "the" appears in every sample doc, "zebra" in one.
	b := buildTestBuilder([]string{"the cat", "the dog", "the zebra"})
	r := b.FromText("the zebra")
	if len(r.Tokens) != 2 {
		t.Fatalf("want 2 tokens, got %v", r.Tokens)
	}
	zebra, _ := b.Dict.Lookup("zebra")
	if b.Order.RankOf(zebra) != r.Tokens[0] {
		t.Fatalf("rare token should be first: tokens=%v zebraRank=%d",
			r.Tokens, b.Order.RankOf(zebra))
	}
}

func TestOverlap(t *testing.T) {
	a := &Record{Tokens: []tokens.Rank{1, 3, 5, 7}}
	b := &Record{Tokens: []tokens.Rank{3, 4, 5, 9}}
	if o := a.Overlap(b); o != 2 {
		t.Fatalf("overlap: got %d want 2", o)
	}
	empty := &Record{}
	if o := a.Overlap(empty); o != 0 {
		t.Fatalf("overlap with empty: got %d want 0", o)
	}
}

func TestOverlapIsSymmetric(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a := &Record{Tokens: tokens.Dedup(append([]tokens.Rank{}, xs...))}
		b := &Record{Tokens: tokens.Dedup(append([]tokens.Rank{}, ys...))}
		return a.Overlap(b) == b.Overlap(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFromRanksDedups(t *testing.T) {
	b := buildTestBuilder([]string{"x"})
	r := b.FromRanks([]tokens.Rank{9, 2, 9, 2, 4})
	if len(r.Tokens) != 3 {
		t.Fatalf("want 3 tokens got %v", r.Tokens)
	}
}

func TestNewPairNormalizesOrder(t *testing.T) {
	p := NewPair(9, 3, 0.8)
	if p.First != 3 || p.Second != 9 {
		t.Fatalf("pair not normalized: %v", p)
	}
	q := NewPair(3, 9, 0.8)
	if p != q {
		t.Fatalf("pairs differ after normalization: %v vs %v", p, q)
	}
}

func TestBuildOrderingFromSampleCountsDocFreqNotTermFreq(t *testing.T) {
	// "a" appears twice in one doc, "b" once in each of two docs: doc
	// frequency must make b the more frequent token.
	dict, order := BuildOrderingFromSample(tokens.WordTokenizer{}, []string{"a a b", "b c"})
	a, _ := dict.Lookup("a")
	bb, _ := dict.Lookup("b")
	if !(order.RankOf(a) < order.RankOf(bb)) {
		t.Fatalf("doc-freq ordering wrong: rank(a)=%d rank(b)=%d",
			order.RankOf(a), order.RankOf(bb))
	}
}

// referenceBuilder is the map-dedup FromText that the sort-based one
// replaced: intern every word, keep the first occurrence of each token,
// observe those, then rank them in first-appearance order and dedup.
type referenceBuilder struct {
	dict  *tokens.Dictionary
	order *tokens.Ordering
}

func (rb *referenceBuilder) fromText(text string) []tokens.Rank {
	seen := make(map[tokens.Token]struct{})
	var ids []tokens.Token
	for _, w := range (tokens.WordTokenizer{}).Tokenize(nil, text) {
		id := rb.dict.Intern(w)
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		ids = append(ids, id)
	}
	ranks := make([]tokens.Rank, 0, len(ids))
	for _, id := range ids {
		rb.dict.Observe(id)
		ranks = append(ranks, rb.order.RankOf(id))
	}
	return tokens.Dedup(ranks)
}

// randomText draws words from a vocabulary with repeats, case changes,
// punctuation and, with some probability, words no sample contained.
func randomText(rng *rand.Rand, vocab []string, fresh *int) string {
	n := rng.Intn(40)
	parts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		w := vocab[rng.Intn(len(vocab))]
		switch rng.Intn(8) {
		case 0:
			*fresh++
			w = fmt.Sprintf("new%d", *fresh)
		case 1:
			w = strings.ToUpper(w)
		case 2:
			w = "(" + w + "),"
		case 3:
			w = "--"
		}
		parts = append(parts, w)
	}
	return strings.Join(parts, []string{" ", "\t", "  "}[rng.Intn(3)])
}

func TestFromTextMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vocab := make([]string, 60)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%d", i)
	}
	fresh := 0
	var sample []string
	for i := 0; i < 30; i++ {
		sample = append(sample, randomText(rng, vocab[:40], &fresh))
	}
	b := buildTestBuilder(sample)
	dict, order := BuildOrderingFromSample(tokens.WordTokenizer{}, sample)
	ref := &referenceBuilder{dict: dict, order: order}
	if b.Dict.Size() != ref.dict.Size() {
		t.Fatalf("sample dictionary: %d tokens, reference %d", b.Dict.Size(), ref.dict.Size())
	}
	for i := 0; i < 2000; i++ {
		text := randomText(rng, vocab, &fresh)
		got, want := b.FromText(text).Tokens, ref.fromText(text)
		if !slices.Equal(got, want) {
			t.Fatalf("text %d %q: ranks %v, reference %v", i, text, got, want)
		}
	}
	if b.Dict.Size() != ref.dict.Size() {
		t.Fatalf("dictionary: %d tokens, reference %d", b.Dict.Size(), ref.dict.Size())
	}
	for id := tokens.Token(0); int(id) < b.Dict.Size(); id++ {
		if b.Dict.Word(id) != ref.dict.Word(id) || b.Dict.Frequency(id) != ref.dict.Frequency(id) {
			t.Fatalf("token %d: %q×%d, reference %q×%d", id,
				b.Dict.Word(id), b.Dict.Frequency(id), ref.dict.Word(id), ref.dict.Frequency(id))
		}
	}
	type assignment struct {
		id tokens.Token
		r  tokens.Rank
	}
	var got, want []assignment
	b.Order.DumpRanks(func(id tokens.Token, r tokens.Rank) { got = append(got, assignment{id, r}) })
	ref.order.DumpRanks(func(id tokens.Token, r tokens.Rank) { want = append(want, assignment{id, r}) })
	if !slices.Equal(got, want) {
		t.Fatalf("rank assignments differ: %d vs %d", len(got), len(want))
	}
}

func TestFromTextDoesNotPinText(t *testing.T) {
	b := buildTestBuilder([]string{"alpha beta"})
	inside := func(s, text string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		base := uintptr(unsafe.Pointer(unsafe.StringData(text)))
		return len(s) > 0 && p >= base && p < base+uintptr(len(text))
	}
	for _, text := range []string{
		strings.Repeat("alpha Gamma delta, epsilon zeta! ", 20),
		fmt.Sprint("eta theta ", 7),
	} {
		b.FromText(text)
		for id := tokens.Token(0); int(id) < b.Dict.Size(); id++ {
			if w := b.Dict.Word(id); inside(w, text) {
				t.Fatalf("interned word %q points into the input text", w)
			}
		}
		for i, w := range b.words[:cap(b.words)] {
			if w != "" {
				t.Fatalf("scratch word %d still holds %q", i, w)
			}
		}
	}
}

var benchRecord Record

// BenchmarkFromText measures steady-state ingest: ~100-word lowercase ASCII
// texts whose words are all interned and ranked, so the record's rank slice
// is the only allocation.
func BenchmarkFromText(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	texts := make([]string, 64)
	for i := range texts {
		words := make([]string, 100)
		for j := range words {
			words[j] = fmt.Sprintf("w%d", int(rng.ExpFloat64()*300))
		}
		texts[i] = strings.Join(words, " ")
	}
	bld := buildTestBuilder(texts[:32])
	for _, text := range texts {
		bld.FromText(text)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRecord = bld.FromText(texts[i%len(texts)])
	}
}
