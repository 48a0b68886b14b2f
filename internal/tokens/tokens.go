// Package tokens provides the token universe for set-similarity joins: a
// string-interning dictionary, tokenizers that split raw text into token
// multisets, and a global frequency ordering that maps tokens to ranks so
// that ascending rank means ascending document frequency. Prefix filtering
// depends on that ordering: rare tokens sort first, so short prefixes carry
// maximal pruning power.
package tokens

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Token is an interned token identifier. Identifiers are dense and start at
// zero, so they index directly into Dictionary side tables.
type Token uint32

// Rank is a position in a global frequency ordering. Lower rank means lower
// document frequency (rarer token). Records are stored as ascending rank
// sequences; see Ordering.
type Rank = uint32

// Dictionary interns token strings and tracks per-token document frequency.
// The zero value is not usable; call NewDictionary. Dictionary is not safe
// for concurrent mutation; wrap it or shard it upstream if needed.
type Dictionary struct {
	ids   map[string]Token
	words []string
	freq  []uint64
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{ids: make(map[string]Token)}
}

// Intern returns the Token for word, creating it with zero frequency when
// unseen. A new word is copied, so the dictionary never retains the text
// word was sliced from.
func (d *Dictionary) Intern(word string) Token {
	if id, ok := d.ids[word]; ok {
		return id
	}
	return d.add(strings.Clone(word))
}

// add appends word, which the dictionary then owns, under the next id.
func (d *Dictionary) add(word string) Token {
	id := Token(len(d.words))
	d.ids[word] = id
	d.words = append(d.words, word)
	d.freq = append(d.freq, 0)
	return id
}

// Lookup returns the Token for word without creating it.
func (d *Dictionary) Lookup(word string) (Token, bool) {
	id, ok := d.ids[word]
	return id, ok
}

// Word returns the string for id. It panics if id was never interned, which
// indicates a programming error (ids only come from this dictionary).
func (d *Dictionary) Word(id Token) string {
	return d.words[id]
}

// Size reports the number of distinct tokens interned so far.
func (d *Dictionary) Size() int { return len(d.words) }

// Observe records one document-frequency observation for id. Call it once
// per distinct token of each record.
func (d *Dictionary) Observe(id Token) { d.freq[id]++ }

// Frequency returns the number of Observe calls for id.
func (d *Dictionary) Frequency(id Token) uint64 { return d.freq[id] }

// Ordering maps tokens to ranks such that ascending rank means ascending
// document frequency at the time the ordering was built. Tokens interned
// after the ordering was built ("unseen" tokens) are assigned ranks above
// every frozen token but in a stable first-come order; they are rare by
// definition, and placing them after the frozen range keeps frozen ranks
// immutable, which streaming indexes require.
type Ordering struct {
	dict   *Dictionary
	rank   []Rank // indexed by Token; valid for tokens frozen at build time
	frozen int    // number of tokens covered by rank
	// extra holds post-frozen ranks, indexed by Token-frozen; each entry is
	// rank+1, and 0 marks a token that has no rank yet.
	extra []Rank
	next  Rank
}

// NewOrdering freezes the current frequency statistics of dict into a global
// ordering. Ties are broken by token id so the ordering is deterministic.
func NewOrdering(dict *Dictionary) *Ordering {
	n := dict.Size()
	ids := make([]Token, n)
	for i := range ids {
		ids[i] = Token(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		fa, fb := dict.freq[ids[a]], dict.freq[ids[b]]
		if fa != fb {
			return fa < fb
		}
		return ids[a] < ids[b]
	})
	rank := make([]Rank, n)
	for r, id := range ids {
		rank[id] = Rank(r)
	}
	return &Ordering{
		dict:   dict,
		rank:   rank,
		frozen: n,
		next:   Rank(n),
	}
}

// RankOf returns the global rank of id, assigning a fresh post-frozen rank
// to tokens unseen at build time.
func (o *Ordering) RankOf(id Token) Rank {
	if int(id) < o.frozen {
		return o.rank[id]
	}
	e := o.extraOf(id)
	if *e == 0 {
		*e = o.next + 1
		o.next++
	}
	return *e - 1
}

// extraOf returns the post-frozen cell of id, growing the table to reach it.
func (o *Ordering) extraOf(id Token) *Rank {
	i := int(id) - o.frozen
	if i >= len(o.extra) {
		o.extra = append(o.extra, make([]Rank, i+1-len(o.extra))...)
	}
	return &o.extra[i]
}

// Universe reports the number of ranks assigned so far.
func (o *Ordering) Universe() int { return int(o.next) }

// DumpRanks visits every (token, rank) assignment made so far in ascending
// token order — the frozen table, then post-frozen extras. Ordering-refresh
// uses it to build the inverse mapping when re-encoding stored records.
func (o *Ordering) DumpRanks(visit func(Token, Rank)) {
	for id := 0; id < o.frozen; id++ {
		visit(Token(id), o.rank[id])
	}
	for i, e := range o.extra {
		if e != 0 {
			visit(Token(o.frozen+i), e-1)
		}
	}
}

// Tokenizer splits raw text into token strings, appending them to dst and
// returning the extended slice. Implementations must be deterministic;
// dedup happens downstream.
type Tokenizer interface {
	Tokenize(dst []string, text string) []string
}

// WordTokenizer splits on Unicode whitespace, lowercases, and strips leading
// and trailing punctuation from each word. The zero value is ready to use.
type WordTokenizer struct {
	// KeepCase disables lowercasing when true.
	KeepCase bool
}

// asciiSpace and asciiPunct classify single-byte runes for WordTokenizer.
// They are filled from the unicode predicates the tokenizer applies to
// every other rune, so the two paths cannot disagree.
var asciiSpace, asciiPunct [utf8.RuneSelf]bool

func init() {
	for c := rune(0); c < utf8.RuneSelf; c++ {
		asciiSpace[c] = unicode.IsSpace(c)
		asciiPunct[c] = unicode.IsPunct(c)
	}
}

// Tokenize implements Tokenizer. It makes one pass over text: a word is a
// maximal run of non-space runes with its leading and trailing punctuation
// removed. Words are substrings of text unless lowercasing changes them.
func (w WordTokenizer) Tokenize(dst []string, text string) []string {
	start := -1   // offset of the current word's first non-punctuation rune
	fold := false // the current word has an upper-case or non-ASCII byte
	for i := 0; i < len(text); {
		c := text[i]
		n := 1
		var space, punct bool
		if c < utf8.RuneSelf {
			space, punct = asciiSpace[c], asciiPunct[c]
			fold = fold || 'A' <= c && c <= 'Z'
		} else {
			var r rune
			r, n = utf8.DecodeRuneInString(text[i:])
			space = unicode.IsSpace(r)
			punct = !space && unicode.IsPunct(r)
			fold = true
		}
		switch {
		case space:
			if start >= 0 {
				dst = w.appendWord(dst, text[start:i], fold)
			}
			start, fold = -1, false
		case start < 0 && !punct:
			start = i
		}
		i += n
	}
	if start >= 0 {
		dst = w.appendWord(dst, text[start:], fold)
	}
	return dst
}

// appendWord trims trailing punctuation from word, which starts with a
// non-punctuation rune and so never trims to empty, and lowercases it when
// fold says it may need it.
func (w WordTokenizer) appendWord(dst []string, word string, fold bool) []string {
	for {
		c := word[len(word)-1]
		if c < utf8.RuneSelf {
			if !asciiPunct[c] {
				break
			}
			word = word[:len(word)-1]
			continue
		}
		r, n := utf8.DecodeLastRuneInString(word)
		if !unicode.IsPunct(r) {
			break
		}
		word = word[:len(word)-n]
	}
	if fold && !w.KeepCase {
		word = strings.ToLower(word)
	}
	return append(dst, word)
}

// QGramTokenizer produces overlapping character q-grams; it is the usual
// choice for short dirty strings in data-cleaning workloads. Q must be at
// least 1. Strings shorter than Q yield a single gram (the whole string).
type QGramTokenizer struct {
	Q int
	// Pad, when true, pads the string with Q-1 leading and trailing '#'
	// sentinels so edge characters appear in Q grams.
	Pad bool
}

// Tokenize implements Tokenizer.
func (q QGramTokenizer) Tokenize(dst []string, text string) []string {
	if q.Q < 1 {
		panic(fmt.Sprintf("tokens: QGramTokenizer.Q must be >= 1, got %d", q.Q))
	}
	r := []rune(strings.ToLower(text))
	if q.Pad && q.Q > 1 {
		pad := make([]rune, q.Q-1)
		for i := range pad {
			pad[i] = '#'
		}
		r = append(append(append([]rune{}, pad...), r...), pad...)
	}
	if len(r) == 0 {
		return dst
	}
	if len(r) <= q.Q {
		return append(dst, string(r))
	}
	dst = slices.Grow(dst, len(r)-q.Q+1)
	for i := 0; i+q.Q <= len(r); i++ {
		dst = append(dst, string(r[i:i+q.Q]))
	}
	return dst
}

// Dedup sorts ranks ascending and removes duplicates in place, returning the
// shortened slice. Records are sets, so every pipeline stage calls this once
// at ingestion.
func Dedup(ranks []Rank) []Rank {
	if len(ranks) < 2 {
		return ranks
	}
	slices.Sort(ranks)
	w := 1
	for i := 1; i < len(ranks); i++ {
		if ranks[i] != ranks[i-1] {
			ranks[w] = ranks[i]
			w++
		}
	}
	return ranks[:w]
}
