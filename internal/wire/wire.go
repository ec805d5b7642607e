// Package wire holds the decoding cursor shared by the binary codecs
// that read untrusted bytes: the /v2 request and response frames
// (internal/server) and the proof Window they carry (internal/proof).
// Encoding needs no helper beyond encoding/binary's Append functions.
package wire

import "encoding/binary"

// Decoder reads varints, bytes and length-checked counts from the
// front of a buffer. Failure is sticky: once a read fails, every later
// read returns a zero value, so a decoder checks Failed once at the
// end instead of after every field.
type Decoder struct {
	buf    []byte
	off    int
	failed bool
}

// NewDecoder returns a Decoder positioned at the start of b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Failed reports whether any read failed, or Fail was called.
func (d *Decoder) Failed() bool { return d.failed }

// Fail marks the decode failed, for semantic checks made by callers.
func (d *Decoder) Fail() { d.failed = true }

// Remaining is the number of bytes not yet consumed.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Rest returns the unconsumed bytes without consuming them, for
// callers that decode a nested record themselves and then Skip it.
func (d *Decoder) Rest() []byte { return d.buf[d.off:] }

// Skip consumes n bytes.
func (d *Decoder) Skip(n int) { d.Take(n) }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.failed {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.failed = true
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed varint that must fit an int.
func (d *Decoder) Int() int {
	if d.failed {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 || int64(int(v)) != v {
		d.failed = true
		return 0
	}
	d.off += n
	return int(v)
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.failed {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.failed = true
		return 0
	}
	d.off += n
	return v
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if b := d.Take(1); b != nil {
		return b[0]
	}
	return 0
}

// Uint64 reads 8 bytes big-endian.
func (d *Decoder) Uint64() uint64 {
	if b := d.Take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Take consumes n bytes and returns them, aliasing the buffer (capped,
// so appending to the result cannot clobber what follows).
func (d *Decoder) Take(n int) []byte {
	if d.failed || n < 0 || n > len(d.buf)-d.off {
		d.failed = true
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Bytes reads a uvarint length and that many bytes.
func (d *Decoder) Bytes() []byte { return d.Take(d.Count(1)) }

// Count reads a uvarint count of items, each at least size bytes
// long, and fails unless the remaining bytes can hold that many — so
// a forged count can never drive an allocation beyond the input's own
// size.
func (d *Decoder) Count(size int) int {
	n := d.Uvarint()
	if d.failed || n > uint64(d.Remaining()/size) {
		d.failed = true
		return 0
	}
	return int(n)
}
