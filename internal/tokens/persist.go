package tokens

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Save serializes the dictionary (words in id order with their document
// frequencies) so a text pipeline can be restored with identical token
// ids.
func (d *Dictionary) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		_, err := bw.Write(tmp[:n])
		return err
	}
	if err := put(uint64(len(d.words))); err != nil {
		return err
	}
	for i, word := range d.words {
		if err := put(uint64(len(word))); err != nil {
			return err
		}
		if _, err := bw.WriteString(word); err != nil {
			return err
		}
		if err := put(d.freq[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadDictionary reads a dictionary written by Save. The reader must be
// positioned exactly at the start of the dictionary; trailing data is left
// unread only when r is buffered by the caller — use a *bufio.Reader when
// concatenating sections.
func LoadDictionary(r io.ByteReader) (*Dictionary, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("tokens: dictionary count: %w", err)
	}
	if n > 1<<28 {
		return nil, fmt.Errorf("tokens: absurd dictionary size %d", n)
	}
	// The count only sizes the tables up to a cap: a corrupt one must not
	// force a huge allocation before the words that back it are read.
	hint := int(min(n, 1<<16))
	d := &Dictionary{
		ids:   make(map[string]Token, hint),
		words: make([]string, 0, hint),
		freq:  make([]uint64, 0, hint),
	}
	var buf []byte
	for i := uint64(0); i < n; i++ {
		wl, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("tokens: word %d length: %w", i, err)
		}
		if wl > 1<<20 {
			return nil, fmt.Errorf("tokens: absurd word length %d", wl)
		}
		buf = slices.Grow(buf[:0], int(wl))[:wl]
		for j := range buf {
			b, err := r.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("tokens: word %d bytes: %w", i, err)
			}
			buf[j] = b
		}
		// The conversion copies buf, so the word goes in without the copy
		// Intern would make.
		id, ok := d.ids[string(buf)]
		if !ok {
			id = d.add(string(buf))
		}
		f, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("tokens: word %d freq: %w", i, err)
		}
		d.freq[id] = f
	}
	return d, nil
}

// Save serializes the ordering: the frozen rank table and the stable
// post-frozen assignments, so restored pipelines map every known token to
// the exact rank it had — which stored records depend on.
func (o *Ordering) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(tmp[:], v)
		_, err := bw.Write(tmp[:n])
		return err
	}
	if err := put(uint64(o.frozen)); err != nil {
		return err
	}
	for _, r := range o.rank[:o.frozen] {
		if err := put(uint64(r)); err != nil {
			return err
		}
	}
	// Each rank in [frozen, next) belongs to exactly one post-frozen token.
	if err := put(uint64(o.next) - uint64(o.frozen)); err != nil {
		return err
	}
	for i, e := range o.extra {
		if e == 0 {
			continue
		}
		if err := put(uint64(o.frozen + i)); err != nil {
			return err
		}
		if err := put(uint64(e - 1)); err != nil {
			return err
		}
	}
	if err := put(uint64(o.next)); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadOrdering reads an ordering written by Save, binding it to dict. It
// rejects a file that does not map the tokens it covers one-to-one onto
// ranks 0…next-1: ranks index the post-frozen table and record builders
// dedup by rank, so both depend on that bijection.
func LoadOrdering(r io.ByteReader, dict *Dictionary) (*Ordering, error) {
	frozen, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("tokens: ordering frozen count: %w", err)
	}
	size := uint64(dict.Size())
	if frozen > size {
		return nil, fmt.Errorf("tokens: ordering freezes %d tokens, dictionary has %d", frozen, size)
	}
	o := &Ordering{
		dict:   dict,
		rank:   make([]Rank, frozen),
		frozen: int(frozen),
	}
	seen := make([]uint64, (size+63)/64)
	claim := func(rk uint64) bool {
		w, b := rk/64, uint64(1)<<(rk%64)
		free := seen[w]&b == 0
		seen[w] |= b
		return free
	}
	for i := range o.rank {
		v, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("tokens: rank %d: %w", i, err)
		}
		if v >= frozen || !claim(v) {
			return nil, fmt.Errorf("tokens: frozen rank %d of token %d is out of range or repeated", v, i)
		}
		o.rank[i] = Rank(v)
	}
	ne, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("tokens: extra count: %w", err)
	}
	if ne > size-frozen {
		return nil, fmt.Errorf("tokens: %d post-frozen ranks for %d post-frozen tokens", ne, size-frozen)
	}
	for i := uint64(0); i < ne; i++ {
		tok, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("tokens: extra token: %w", err)
		}
		if tok < frozen || tok >= size {
			return nil, fmt.Errorf("tokens: extra token %d outside post-frozen range [%d, %d)", tok, frozen, size)
		}
		rk, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("tokens: extra rank: %w", err)
		}
		e := o.extraOf(Token(tok))
		if *e != 0 || rk < frozen || rk >= frozen+ne || !claim(rk) {
			return nil, fmt.Errorf("tokens: extra rank %d of token %d is out of range or repeated", rk, tok)
		}
		*e = Rank(rk) + 1
	}
	next, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("tokens: ordering next: %w", err)
	}
	if next != frozen+ne {
		return nil, fmt.Errorf("tokens: ordering next rank %d, want %d", next, frozen+ne)
	}
	o.next = Rank(next)
	return o, nil
}
