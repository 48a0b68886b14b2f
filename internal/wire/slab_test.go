package wire

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"repro/internal/record"
	"repro/internal/tokens"
)

// TestDecodeSlabs reads 1000 records of mixed lengths from one Reader —
// past several record-slab and rank-slab boundaries, with one record
// longer than a whole rank slab — and checks that slab decoding never
// lets one record see another's writes: every token slice is full
// (cap == len), every earlier record still holds its values after all
// later reads, and appending to one record's tokens leaves every other
// record unchanged.
func TestDecodeSlabs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 1000
	want := make([]*record.Record, n)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ranks := 0
	for i := range want {
		l := rng.Intn(40)
		if i == 617 {
			l = rankChunk + 500
		}
		toks := make([]tokens.Rank, l)
		next := tokens.Rank(rng.Intn(10))
		for j := range toks {
			toks[j] = next
			next += tokens.Rank(1 + rng.Intn(1000))
		}
		ranks += l
		want[i] = &record.Record{ID: record.ID(i), Time: int64(3 * i), Tokens: toks}
		if err := w.WriteRecord(i%2 == 0, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if n <= 2*recChunk || ranks <= 2*rankChunk+want[617].Len() {
		t.Fatalf("stream too small to cross slab boundaries: %d records, %d ranks", n, ranks)
	}

	rd := NewReader(&buf)
	got := make([]*record.Record, 0, n)
	for {
		typ, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil || typ != TypeRecord {
			t.Fatalf("frame %d: type %d, %v", len(got), typ, err)
		}
		rt, err := rd.ReadRecord()
		if err != nil {
			t.Fatalf("record %d: %v", len(got), err)
		}
		if c, l := cap(rt.Rec.Tokens), len(rt.Rec.Tokens); c != l {
			t.Fatalf("record %d: tokens have cap %d, len %d", len(got), c, l)
		}
		got = append(got, rt.Rec)
	}
	if len(got) != n {
		t.Fatalf("read %d records, wrote %d", len(got), n)
	}
	same := func(stage string) {
		t.Helper()
		for i, r := range got {
			if r.ID != want[i].ID || r.Time != want[i].Time || len(r.Tokens) != len(want[i].Tokens) {
				t.Fatalf("%s: record %d is %d@%d with %d tokens, want %d@%d with %d", stage, i,
					r.ID, r.Time, len(r.Tokens), want[i].ID, want[i].Time, len(want[i].Tokens))
			}
			for j, tok := range r.Tokens {
				if tok != want[i].Tokens[j] {
					t.Fatalf("%s: record %d token %d is %d, want %d", stage, i, j, tok, want[i].Tokens[j])
				}
			}
		}
	}
	same("after all reads")
	for i, r := range got {
		_ = append(r.Tokens, tokens.Rank(1<<31), tokens.Rank(i))
	}
	same("after appending to every record")
}

// BenchmarkReadRecord decodes pre-encoded 10-token Record frames from
// one Reader. Records and their tokens are carved from the reader's
// slabs, so a decode reports 0 allocs/op (one slab refill per 256
// records or 8192 ranks).
func BenchmarkReadRecord(b *testing.B) {
	const frames = 1 << 12
	var enc bytes.Buffer
	w := NewWriter(&enc)
	toks := []tokens.Rank{3, 17, 40, 41, 99, 180, 500, 1024, 7000, 65000}
	for i := 0; i < frames; i++ {
		if err := w.WriteRecord(true, &record.Record{ID: record.ID(i), Time: int64(i), Tokens: toks}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	src := bytes.NewReader(enc.Bytes())
	rd := NewReader(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%frames == 0 {
			src.Reset(enc.Bytes())
			rd.Reset(src)
		}
		if _, err := rd.Next(); err != nil {
			b.Fatal(err)
		}
		if _, err := rd.ReadRecord(); err != nil {
			b.Fatal(err)
		}
	}
}
