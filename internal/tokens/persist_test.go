package tokens

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestDictionarySaveLoadRoundTrip(t *testing.T) {
	d := NewDictionary()
	words := []string{"alpha", "beta", "γάμμα", "", "with space"}
	for i, w := range words {
		id := d.Intern(w)
		for j := 0; j <= i; j++ {
			d.Observe(id)
		}
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDictionary(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != d.Size() {
		t.Fatalf("size: %d vs %d", got.Size(), d.Size())
	}
	for i, w := range words {
		id, ok := got.Lookup(w)
		if !ok || id != Token(i) {
			t.Fatalf("word %q: id %d ok %v", w, id, ok)
		}
		if got.Frequency(id) != d.Frequency(id) {
			t.Fatalf("freq of %q: %d vs %d", w, got.Frequency(id), d.Frequency(id))
		}
	}
}

func TestOrderingSaveLoadPreservesRanks(t *testing.T) {
	d := NewDictionary()
	for _, w := range []string{"a", "b", "c", "d"} {
		id := d.Intern(w)
		d.Observe(id)
	}
	o := NewOrdering(d)
	// Force two post-frozen assignments.
	late1 := d.Intern("late1")
	late2 := d.Intern("late2")
	r1, r2 := o.RankOf(late1), o.RankOf(late2)

	var db, ob bytes.Buffer
	if err := d.Save(&db); err != nil {
		t.Fatal(err)
	}
	if err := o.Save(&ob); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadDictionary(bufio.NewReader(&db))
	if err != nil {
		t.Fatal(err)
	}
	o2, err := LoadOrdering(bufio.NewReader(&ob), d2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Size(); i++ {
		if o.RankOf(Token(i)) != o2.RankOf(Token(i)) {
			t.Fatalf("rank of token %d differs: %d vs %d",
				i, o.RankOf(Token(i)), o2.RankOf(Token(i)))
		}
	}
	if o2.RankOf(late1) != r1 || o2.RankOf(late2) != r2 {
		t.Fatal("post-frozen ranks not preserved")
	}
	// New tokens after restore continue the rank sequence.
	newer := d2.Intern("newer")
	if got := o2.RankOf(newer); got != r2+1 {
		t.Fatalf("next rank: got %d want %d", got, r2+1)
	}
}

func TestLoadDictionaryRejectsGarbage(t *testing.T) {
	if _, err := LoadDictionary(bufio.NewReader(strings.NewReader(""))); err == nil {
		t.Fatal("empty accepted")
	}
	// Absurd count.
	if _, err := LoadDictionary(bufio.NewReader(bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}))); err == nil {
		t.Fatal("absurd count accepted")
	}
}

func TestOrderingSaveDeterministic(t *testing.T) {
	d := NewDictionary()
	for i := 0; i < 50; i++ {
		id := d.Intern(fmt.Sprintf("f%d", i))
		for j := 0; j < i%7; j++ {
			d.Observe(id)
		}
	}
	o := NewOrdering(d)
	// Post-frozen tokens get ranks in an order unrelated to their ids, and
	// some are interned without ever being ranked.
	var late []Token
	for i := 0; i < 300; i++ {
		late = append(late, d.Intern(fmt.Sprintf("late%d", i)))
	}
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(late), func(i, j int) { late[i], late[j] = late[j], late[i] })
	for _, id := range late[:250] {
		o.RankOf(id)
	}

	var db, first, second bytes.Buffer
	if err := d.Save(&db); err != nil {
		t.Fatal(err)
	}
	if err := o.Save(&first); err != nil {
		t.Fatal(err)
	}
	if err := o.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("two saves of one ordering differ")
	}
	d2, err := LoadDictionary(bufio.NewReader(&db))
	if err != nil {
		t.Fatal(err)
	}
	o2, err := LoadOrdering(bufio.NewReader(bytes.NewReader(first.Bytes())), d2)
	if err != nil {
		t.Fatal(err)
	}
	type assignment struct {
		id Token
		r  Rank
	}
	var want, got []assignment
	o.DumpRanks(func(id Token, r Rank) { want = append(want, assignment{id, r}) })
	o2.DumpRanks(func(id Token, r Rank) { got = append(got, assignment{id, r}) })
	if len(want) != 50+250 || !slices.Equal(got, want) {
		t.Fatalf("round trip: %d assignments, restored %d, equal=%v", len(want), len(got), slices.Equal(got, want))
	}
	if o2.Universe() != o.Universe() {
		t.Fatalf("universe: %d vs %d", o2.Universe(), o.Universe())
	}
	// The unranked tokens continue the sequence identically on both sides.
	for _, id := range late[250:] {
		if a, b := o.RankOf(id), o2.RankOf(id); a != b {
			t.Fatalf("token %d: rank %d, restored %d", id, a, b)
		}
	}
}

// orderingFile encodes uvarints the way Ordering.Save lays them out:
// frozen count, frozen ranks, extra count, (token, rank) pairs, next rank.
func orderingFile(vals ...uint64) *bufio.Reader {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return bufio.NewReader(bytes.NewReader(b))
}

func TestLoadOrderingRejectsGarbage(t *testing.T) {
	d := NewDictionary()
	if _, err := LoadOrdering(bufio.NewReader(strings.NewReader("")), d); err == nil {
		t.Fatal("empty accepted")
	}
	for _, w := range []string{"a", "b", "c", "d"} {
		d.Intern(w)
	}
	if _, err := LoadOrdering(orderingFile(2, 1, 0, 2, 2, 3, 3, 2, 4), d); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	cases := map[string]*bufio.Reader{
		"extra token past the dictionary": orderingFile(2, 1, 0, 1, 9, 2, 3),
		"extra token inside frozen range": orderingFile(2, 1, 0, 1, 1, 2, 3),
		"extra token repeated":            orderingFile(2, 1, 0, 2, 2, 2, 2, 3, 4),
		"more extras than tokens":         orderingFile(2, 1, 0, 3, 2, 2, 3, 3, 3, 4, 5),
		"frozen count past the dict":      orderingFile(5, 0, 1, 2, 3, 4, 0, 5),
		"frozen rank out of range":        orderingFile(2, 1, 2, 0, 2),
		"frozen rank repeated":            orderingFile(2, 1, 1, 0, 2),
		"extra rank inside frozen range":  orderingFile(2, 1, 0, 1, 2, 0, 3),
		"extra rank repeated":             orderingFile(2, 1, 0, 2, 2, 2, 3, 2, 4),
		"next rank inconsistent":          orderingFile(2, 1, 0, 1, 2, 2, 7),
	}
	for name, r := range cases {
		if _, err := LoadOrdering(r, d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
