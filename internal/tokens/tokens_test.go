package tokens

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestDictionaryInternIsIdempotent(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("apple")
	b := d.Intern("banana")
	if a == b {
		t.Fatalf("distinct words got same id %d", a)
	}
	if again := d.Intern("apple"); again != a {
		t.Fatalf("re-intern apple: got %d want %d", again, a)
	}
	if d.Size() != 2 {
		t.Fatalf("size: got %d want 2", d.Size())
	}
	if w := d.Word(a); w != "apple" {
		t.Fatalf("word(a): got %q", w)
	}
}

func TestDictionaryLookup(t *testing.T) {
	d := NewDictionary()
	if _, ok := d.Lookup("ghost"); ok {
		t.Fatal("lookup of unseen word succeeded")
	}
	id := d.Intern("ghost")
	got, ok := d.Lookup("ghost")
	if !ok || got != id {
		t.Fatalf("lookup: got (%d,%v) want (%d,true)", got, ok, id)
	}
}

func TestObserveCountsDocumentFrequency(t *testing.T) {
	d := NewDictionary()
	a, b := d.Intern("a"), d.Intern("b")
	d.Observe(a)
	d.Observe(b)
	d.Observe(a)
	if f := d.Frequency(a); f != 2 {
		t.Fatalf("freq(a): got %d want 2", f)
	}
	if f := d.Frequency(b); f != 1 {
		t.Fatalf("freq(b): got %d want 1", f)
	}
}

func TestOrderingRareTokensRankFirst(t *testing.T) {
	d := NewDictionary()
	common := d.Intern("the")
	rare := d.Intern("xylophone")
	mid := d.Intern("data")
	for i := 0; i < 10; i++ {
		d.Observe(common)
	}
	for i := 0; i < 3; i++ {
		d.Observe(mid)
	}
	d.Observe(rare)
	o := NewOrdering(d)
	if !(o.RankOf(rare) < o.RankOf(mid) && o.RankOf(mid) < o.RankOf(common)) {
		t.Fatalf("ordering wrong: rare=%d mid=%d common=%d",
			o.RankOf(rare), o.RankOf(mid), o.RankOf(common))
	}
}

func TestOrderingTiesBreakByID(t *testing.T) {
	d := NewDictionary()
	a := d.Intern("a")
	b := d.Intern("b")
	o := NewOrdering(d)
	if !(o.RankOf(a) < o.RankOf(b)) {
		t.Fatalf("tie break: rank(a)=%d rank(b)=%d", o.RankOf(a), o.RankOf(b))
	}
}

func TestOrderingUnseenTokensGetStablePostFrozenRanks(t *testing.T) {
	d := NewDictionary()
	d.Intern("seen")
	o := NewOrdering(d)
	newTok := d.Intern("later")
	r1 := o.RankOf(newTok)
	if int(r1) < o.Universe()-1 {
		t.Fatalf("unseen token rank %d should be post-frozen", r1)
	}
	if r2 := o.RankOf(newTok); r2 != r1 {
		t.Fatalf("unseen rank not stable: %d then %d", r1, r2)
	}
	another := d.Intern("evenlater")
	if o.RankOf(another) == r1 {
		t.Fatal("two unseen tokens share a rank")
	}
}

func TestOrderingIsPermutationOfFrozenTokens(t *testing.T) {
	d := NewDictionary()
	rng := rand.New(rand.NewSource(7))
	words := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for _, w := range words {
		d.Intern(w)
	}
	for i := 0; i < 100; i++ {
		id := Token(rng.Intn(len(words)))
		d.Observe(id)
	}
	o := NewOrdering(d)
	seen := make(map[Rank]bool)
	for i := 0; i < len(words); i++ {
		r := o.RankOf(Token(i))
		if int(r) >= len(words) {
			t.Fatalf("rank %d out of frozen range", r)
		}
		if seen[r] {
			t.Fatalf("duplicate rank %d", r)
		}
		seen[r] = true
	}
}

func TestWordTokenizer(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"  spaced\tout\nlines ", []string{"spaced", "out", "lines"}},
		{"...", nil},
		{"", nil},
		{"don't STOP", []string{"don't", "stop"}},
	}
	var w WordTokenizer
	for _, c := range cases {
		got := w.Tokenize(nil, c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWordTokenizerKeepCase(t *testing.T) {
	w := WordTokenizer{KeepCase: true}
	got := w.Tokenize(nil, "Hello World")
	want := []string{"Hello", "World"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestQGramTokenizer(t *testing.T) {
	q := QGramTokenizer{Q: 3}
	got := q.Tokenize(nil, "abcd")
	want := []string{"abc", "bcd"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("3-grams of abcd: got %v want %v", got, want)
	}
	if short := q.Tokenize(nil, "ab"); !reflect.DeepEqual(short, []string{"ab"}) {
		t.Fatalf("short string: got %v", short)
	}
	if empty := q.Tokenize(nil, ""); empty != nil {
		t.Fatalf("empty string: got %v", empty)
	}
}

func TestQGramTokenizerPad(t *testing.T) {
	q := QGramTokenizer{Q: 2, Pad: true}
	got := q.Tokenize(nil, "ab")
	want := []string{"#a", "ab", "b#"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("padded 2-grams: got %v want %v", got, want)
	}
}

func TestQGramTokenizerPanicsOnBadQ(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Q=0")
		}
	}()
	QGramTokenizer{Q: 0}.Tokenize(nil, "x")
}

func TestDedup(t *testing.T) {
	got := Dedup([]Rank{5, 1, 3, 1, 5, 2})
	want := []Rank{1, 2, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	if out := Dedup(nil); out != nil {
		t.Fatalf("nil input: got %v", out)
	}
	if out := Dedup([]Rank{7}); !reflect.DeepEqual(out, []Rank{7}) {
		t.Fatalf("singleton: got %v", out)
	}
}

func TestDedupPropertySortedUnique(t *testing.T) {
	f := func(in []uint32) bool {
		ranks := make([]Rank, len(in))
		copy(ranks, in)
		out := Dedup(ranks)
		if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
			return false
		}
		uniq := make(map[Rank]bool)
		for _, r := range out {
			if uniq[r] {
				return false
			}
			uniq[r] = true
		}
		// Same value set as input.
		inSet := make(map[Rank]bool)
		for _, r := range in {
			inSet[r] = true
		}
		if len(inSet) != len(out) {
			return false
		}
		for _, r := range out {
			if !inSet[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

var benchWords []string

// BenchmarkWordTokenizer splits ~100-word lowercase ASCII texts into a
// reused destination slice, which must not allocate.
func BenchmarkWordTokenizer(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	texts := make([]string, 64)
	for i := range texts {
		words := make([]string, 100)
		for j := range words {
			words[j] = fmt.Sprintf("w%d", int(rng.ExpFloat64()*300))
		}
		texts[i] = strings.Join(words, " ") + "."
	}
	var w WordTokenizer
	dst := w.Tokenize(nil, texts[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = w.Tokenize(dst[:0], texts[i%len(texts)])
	}
	benchWords = dst
}
