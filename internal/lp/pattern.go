package lp

import "math/bits"

// pattern is the nonzero pattern of an m×m matrix, kept as bitsets of
// w = ⌈m/64⌉ words per line: bit k of row r's words is set when
// position (r, k) may be nonzero, and, when cols is kept, bit r of
// column k's words mirrors it. A pattern is a superset: an entry that
// cancels to exactly zero stays listed. Its arrays are all zero between
// uses, so a pattern for another m reuses them as they are.
type pattern struct {
	w          int
	rows, cols []uint64
}

// size makes p the empty pattern of an m×m matrix, with its column
// bitsets when cols is set. The arrays must be all zero.
func (p *pattern) size(m int, cols bool) {
	p.w = (m + 63) >> 6
	p.rows = resize(p.rows, m*p.w)
	if cols {
		p.cols = resize(p.cols, m*p.w)
	}
}

// row returns row r's words.
func (p *pattern) row(r int) []uint64 {
	return p.rows[r*p.w : (r+1)*p.w : (r+1)*p.w]
}

// col returns column k's words; the pattern must keep its columns.
func (p *pattern) col(k int) []uint64 {
	return p.cols[k*p.w : (k+1)*p.w : (k+1)*p.w]
}

// set lists position (r, k).
func (p *pattern) set(r, k int) {
	p.rows[r*p.w+k>>6] |= 1 << (k & 63)
	if p.cols != nil {
		p.cols[k*p.w+r>>6] |= 1 << (r & 63)
	}
}

// union lists z's members in row r: the fill is z &^ row, a word at a
// time, and each filled position is also listed in its column.
func (p *pattern) union(r int, z *nzSet) {
	row := p.row(r)
	rw, rb := r>>6, uint64(1)<<(r&63)
	for _, wi := range z.words {
		fill := z.bits[wi] &^ row[wi]
		if fill == 0 {
			continue
		}
		row[wi] |= fill
		if p.cols == nil {
			continue
		}
		for base := int(wi) << 6; fill != 0; fill &= fill - 1 {
			k := base | bits.TrailingZeros64(fill)
			p.cols[k*p.w+rw] |= rb
		}
	}
}

// clearRow unlists row r's positions, from their columns too, and
// zeroes vals at them when vals is not nil. Only the words that hold a
// listed position are written.
func (p *pattern) clearRow(r int, vals []float64) {
	row := p.row(r)
	rw, rb := r>>6, uint64(1)<<(r&63)
	for wi, word := range row {
		if word == 0 {
			continue
		}
		row[wi] = 0
		for base := wi << 6; word != 0; word &= word - 1 {
			k := base | bits.TrailingZeros64(word)
			if vals != nil {
				vals[k] = 0
			}
			if p.cols != nil {
				p.cols[k*p.w+rw] &^= rb
			}
		}
	}
}

// clearDiag unlists position (r, r), writing only the two words that
// hold it: for a row that lists only its diagonal, the whole clear.
func (p *pattern) clearDiag(r int) {
	p.rows[r*p.w+r>>6] &^= 1 << (r & 63)
	if p.cols != nil {
		p.cols[r*p.w+r>>6] &^= 1 << (r & 63)
	}
}

// nzSet is a scratch set of positions 0..m-1, held both ways: idx lists
// the members in insertion order, and bits marks them, with words
// listing, in first-touch order, the words of bits that hold any. bits is
// zero outside those words, so reset clears only what was set.
type nzSet struct {
	idx   []int32
	bits  []uint64
	words []int32
}

// size makes z the empty set over m positions; z must be reset.
func (z *nzSet) size(m int) {
	z.bits = resize(z.bits, (m+63)>>6)
}

// reset empties z.
func (z *nzSet) reset() {
	for _, wi := range z.words {
		z.bits[wi] = 0
	}
	z.idx, z.words = z.idx[:0], z.words[:0]
}

// add inserts k, which must not be a member.
func (z *nzSet) add(k int) {
	wi := k >> 6
	if z.bits[wi] == 0 {
		z.words = append(z.words, int32(wi))
	}
	z.bits[wi] |= 1 << (k & 63)
	z.idx = append(z.idx, int32(k))
}
