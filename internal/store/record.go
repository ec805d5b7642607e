package store

import (
	"encoding/binary"
	"errors"
	"math"
)

// Element record: the one binary form of a posting element, shared by
// the WAL insert-batch entry, the snapshot element region and the v2
// wire frames (internal/server):
//
//	group (signed varint) | trs (8B IEEE big-endian) | sealedLen | sealed
//
// Changing it changes the on-disk formats; it is versioned by their
// magics, not here.

// MinElementRecord is the smallest encoded element record (one-byte
// group, the TRS, a one-byte zero length). Decoders of untrusted input
// bound an element count by remaining bytes / MinElementRecord before
// allocating.
const MinElementRecord = 1 + 8 + 1

// ErrBadRecord reports a truncated or malformed element record.
var ErrBadRecord = errors.New("store: malformed element record")

// AppendElement appends el's record to dst.
func AppendElement(dst []byte, el Element) []byte {
	dst = binary.AppendVarint(dst, int64(el.Group))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(el.TRS))
	dst = binary.AppendUvarint(dst, uint64(len(el.Sealed)))
	return append(dst, el.Sealed...)
}

// ReadElement decodes the record at the front of b, returning the
// element and the number of bytes it occupied. Sealed aliases b:
// callers that keep the element past b's lifetime copy it.
func ReadElement(b []byte) (Element, int, error) {
	group, n := binary.Varint(b)
	if n <= 0 {
		return Element{}, 0, ErrBadRecord
	}
	off := n
	if len(b)-off < 8 {
		return Element{}, 0, ErrBadRecord
	}
	trs := math.Float64frombits(binary.BigEndian.Uint64(b[off:]))
	off += 8
	sl, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return Element{}, 0, ErrBadRecord
	}
	off += n
	if sl > uint64(len(b)-off) {
		return Element{}, 0, ErrBadRecord
	}
	end := off + int(sl)
	return Element{Sealed: b[off:end:end], TRS: trs, Group: int(group)}, end, nil
}

// element decodes one record at the cursor and advances past it.
func (c *byteCursor) element() (Element, error) {
	el, n, err := ReadElement(c.buf[c.off:])
	if err != nil {
		return Element{}, err
	}
	c.off += n
	return el, nil
}
