package proof

import (
	"encoding/binary"
	"errors"
	"math"

	"zerberr/internal/wire"
)

// Binary Window encoding, the proof section of a /v2/query response
// frame (internal/server). Fields travel one for one; hashes are 32
// raw bytes; ints are signed varints, so a hostile server's negative
// counts reach VerifyWindow, which is where they are judged.
//
//	window:   version (uvarint) | root (32B) | numGroups (uvarint) | group*
//	group:    group (varint) | flags (1B) | count | start | end (varints) |
//	          [opaque (32B)] | [root (32B)] | [pred] | [succ] |
//	          numPath (uvarint) | numPath × hash (32B)
//	boundary: trs (8B IEEE big-endian) | sealedLen (uvarint) | sealed
//
// flags bit 0..3 mark Opaque, Root, Pred and Succ present.

const (
	flagOpaque = 1 << iota
	flagRoot
	flagPred
	flagSucc
	flagMask = flagOpaque | flagRoot | flagPred | flagSucc
)

// minGroupWire is the smallest encoded GroupWindow: one byte each for
// group, flags, count, start, end and the path length.
const minGroupWire = 6

// ErrBadEncoding reports a truncated or malformed binary Window.
var ErrBadEncoding = errors.New("proof: malformed window encoding")

// AppendBinary appends w's binary encoding to dst.
func (w *Window) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, w.Version)
	dst = append(dst, w.Root[:]...)
	dst = binary.AppendUvarint(dst, uint64(len(w.Groups)))
	for i := range w.Groups {
		g := &w.Groups[i]
		var flags byte
		if g.Opaque != nil {
			flags |= flagOpaque
		}
		if g.Root != nil {
			flags |= flagRoot
		}
		if g.Pred != nil {
			flags |= flagPred
		}
		if g.Succ != nil {
			flags |= flagSucc
		}
		dst = binary.AppendVarint(dst, int64(g.Group))
		dst = append(dst, flags)
		dst = binary.AppendVarint(dst, int64(g.Count))
		dst = binary.AppendVarint(dst, int64(g.Start))
		dst = binary.AppendVarint(dst, int64(g.End))
		if g.Opaque != nil {
			dst = append(dst, g.Opaque[:]...)
		}
		if g.Root != nil {
			dst = append(dst, g.Root[:]...)
		}
		for _, b := range []*Boundary{g.Pred, g.Succ} {
			if b != nil {
				dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(b.TRS))
				dst = binary.AppendUvarint(dst, uint64(len(b.Sealed)))
				dst = append(dst, b.Sealed...)
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(g.Path)))
		for j := range g.Path {
			dst = append(dst, g.Path[j][:]...)
		}
	}
	return dst
}

// ReadWindow decodes the Window encoded at d's position and consumes
// it. Boundary payloads alias d's buffer. Every count is checked
// against the bytes that remain before anything is allocated; on
// failure d is left failed and the error is ErrBadEncoding.
func ReadWindow(d *wire.Decoder) (*Window, error) {
	w := &Window{Version: d.Uvarint()}
	copy(w.Root[:], d.Take(HashSize))
	if n := d.Count(minGroupWire); n > 0 {
		w.Groups = make([]GroupWindow, n)
		for i := range w.Groups {
			readGroup(d, &w.Groups[i])
		}
	}
	if d.Failed() {
		return nil, ErrBadEncoding
	}
	return w, nil
}

func readGroup(d *wire.Decoder, g *GroupWindow) {
	g.Group = d.Int()
	flags := d.Byte()
	if flags&^flagMask != 0 {
		d.Fail()
	}
	g.Count, g.Start, g.End = d.Int(), d.Int(), d.Int()
	if flags&flagOpaque != 0 {
		g.Opaque = new(Hash)
		copy(g.Opaque[:], d.Take(HashSize))
	}
	if flags&flagRoot != 0 {
		g.Root = new(Hash)
		copy(g.Root[:], d.Take(HashSize))
	}
	if flags&flagPred != 0 {
		g.Pred = readBoundary(d)
	}
	if flags&flagSucc != 0 {
		g.Succ = readBoundary(d)
	}
	if n := d.Count(HashSize); n > 0 {
		g.Path = make([]Hash, n)
		for j := range g.Path {
			copy(g.Path[j][:], d.Take(HashSize))
		}
	}
}

func readBoundary(d *wire.Decoder) *Boundary {
	return &Boundary{TRS: math.Float64frombits(d.Uint64()), Sealed: d.Bytes()}
}
