package lp

import (
	"encoding/binary"
	"fmt"
)

// Basis serialization lets a snapshot outlive the solve that produced
// it: the serve layer exports bases from a finished job and imports
// them to seed a later delta re-solve of a near-identical instance.
// The format is versioned and purely combinatorial, mirroring the
// in-memory snapshot. The decoder refuses unknown status bytes, and a
// decoded basis goes through the same newWarmSolver validation as a
// live one, so a corrupt or mismatched import degrades to a cold solve,
// never a wrong result.

// basisMagic identifies serialized basis snapshots (format version 1).
var basisMagic = [4]byte{'L', 'P', 'B', '1'}

// MarshalBinary encodes the basis snapshot.
func (b *Basis) MarshalBinary() ([]byte, error) {
	if b == nil {
		return nil, fmt.Errorf("lp: marshal nil basis")
	}
	n := int(b.nStruct) + int(b.m)
	if len(b.basis) != int(b.m) || len(b.vstat) != n {
		return nil, fmt.Errorf("lp: marshal inconsistent basis (nStruct=%d m=%d basis=%d vstat=%d)",
			b.nStruct, b.m, len(b.basis), len(b.vstat))
	}
	out := make([]byte, 0, 4+8+4*len(b.basis)+len(b.vstat))
	out = append(out, basisMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, uint32(b.nStruct))
	out = binary.LittleEndian.AppendUint32(out, uint32(b.m))
	for _, v := range b.basis {
		out = binary.LittleEndian.AppendUint32(out, uint32(v))
	}
	for _, v := range b.vstat {
		out = append(out, byte(v))
	}
	return out, nil
}

// UnmarshalBasis decodes a snapshot produced by MarshalBinary. Shape
// consistency and the status bytes are checked here; fit against a
// particular problem is checked at warm-start time.
func UnmarshalBasis(data []byte) (*Basis, error) {
	if len(data) < 12 || [4]byte(data[:4]) != basisMagic {
		return nil, fmt.Errorf("lp: basis blob missing LPB1 header")
	}
	nStruct := int32(binary.LittleEndian.Uint32(data[4:8]))
	m := int32(binary.LittleEndian.Uint32(data[8:12]))
	if nStruct < 0 || m < 0 {
		return nil, fmt.Errorf("lp: basis blob negative dims %d/%d", nStruct, m)
	}
	n := int(nStruct) + int(m)
	want := 12 + 4*int(m) + n
	if len(data) != want {
		return nil, fmt.Errorf("lp: basis blob length %d, want %d for dims %d/%d",
			len(data), want, nStruct, m)
	}
	b := &Basis{
		nStruct: nStruct,
		m:       m,
		basis:   make([]int32, m),
		vstat:   make([]int8, n),
	}
	off := 12
	for i := range b.basis {
		b.basis[i] = int32(binary.LittleEndian.Uint32(data[off : off+4]))
		off += 4
	}
	for i := range b.vstat {
		st := int8(data[off])
		if !knownStatus(st) {
			return nil, fmt.Errorf("lp: basis blob variable %d has unknown status %d", i, data[off])
		}
		b.vstat[i] = st
		off++
	}
	return b, nil
}
