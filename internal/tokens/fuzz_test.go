package tokens

import (
	"slices"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// referenceWords is the FieldsFunc/TrimFunc/ToLower tokenizer that
// WordTokenizer's byte scanner replaced, kept as its specification.
func referenceWords(text string, keepCase bool) []string {
	var out []string
	for _, f := range strings.FieldsFunc(text, unicode.IsSpace) {
		f = strings.TrimFunc(f, unicode.IsPunct)
		if f == "" {
			continue
		}
		if !keepCase {
			f = strings.ToLower(f)
		}
		out = append(out, f)
	}
	return out
}

// FuzzWordTokenizer: arbitrary (possibly invalid UTF-8) input must never
// panic, never produce empty tokens, and produce exactly the reference
// tokenizer's words, appended after whatever dst already holds.
func FuzzWordTokenizer(f *testing.F) {
	f.Add("hello, world")
	f.Add("  \t\n ")
	f.Add("日本語 テキスト")
	f.Add(string([]byte{0xFF, 0xFE, 0x20, 0x41}))
	f.Add("Caf\u00e9\u00a0NO-BREAK\u0085next\u2028line")
	f.Add("«Quoted» — dash—joined ‘single’ ¿Qué?")
	f.Add("$5 a+b <tag> x=y ^up | ~tilde `tick` $ + < = > ^ | ~ `")
	f.Add("\xe2\x80\x94\x80 \xe2\x80!\xe2\x80\x94 \xf0\x9f\x98\x80\x80.")
	f.Add("İSTANBUL ǅUNGLA ΣΑΣ ẞ")
	f.Fuzz(func(t *testing.T, text string) {
		for _, keep := range []bool{false, true} {
			want := referenceWords(text, keep)
			got := WordTokenizer{KeepCase: keep}.Tokenize([]string{"prior"}, text)
			if got[0] != "prior" {
				t.Fatalf("KeepCase=%v: dst prefix overwritten: %q", keep, got)
			}
			got = got[1:]
			for _, tok := range got {
				if tok == "" {
					t.Fatal("empty token")
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("KeepCase=%v: Tokenize(%q) = %q, reference %q", keep, text, got, want)
			}
		}
	})
}

// FuzzQGramTokenizer: grams must cover the string and have length <= Q
// runes.
func FuzzQGramTokenizer(f *testing.F) {
	f.Add("abcdef", 3)
	f.Add("", 2)
	f.Add("é", 4)
	f.Fuzz(func(t *testing.T, text string, q int) {
		q = int(uint(q)%6) + 1 // 1..6, safe for all ints including MinInt
		grams := QGramTokenizer{Q: q}.Tokenize(nil, text)
		for _, g := range grams {
			if n := utf8.RuneCountInString(g); n > q {
				t.Fatalf("gram %q has %d runes > q=%d", g, n, q)
			}
		}
	})
}
