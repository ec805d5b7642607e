package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"zerberr/internal/crypt"
	"zerberr/internal/proof"
	"zerberr/internal/store"
	"zerberr/internal/wire"
	"zerberr/internal/zerber"
)

// Binary frames for the three v2 batch endpoints. A request whose
// Content-Type is FrameContentType is decoded as a frame and answered
// with one; any other request is JSON (see Handler). Integers are
// unsigned varints unless marked signed; element is the store's
// element record (store.AppendElement), the same bytes the WAL and
// snapshots hold.
//
//	frame:    kind (1B) | body
//	'Q' /v2/query request:  numTokens | token* | numQueries | query*
//	'R' /v2/query response: numResponses | response*
//	'I' /v2/insert request: token | numOps | (list | element)*
//	'D' /v2/remove request: token | numOps | (list | sealedLen | sealed)*
//
//	token:    userLen | user | group (signed) | expiry (signed, Unix ns) |
//	          macLen | mac
//	query:    list | offset (signed) | count (signed) |
//	          flags (1B: 1 = if_version follows, 2 = proof) | [if_version]
//	response: flags (1B: 1 = exhausted, 2 = unchanged, 4 = proof follows) |
//	          version | numElems | element* | [proof.Window binary]
//
// Offsets and counts stay signed so QueryBatch, not the codec, judges
// them. There is no checksum: TCP and HTTP already frame the bytes,
// and a hostile server could recompute any checksum — integrity is
// the proof layer's job.

// FrameContentType selects the binary codec on /v2/query, /v2/insert
// and /v2/remove.
const FrameContentType = "application/x-zerber-frame"

// ErrBadFrame reports a truncated or malformed frame. The server
// answers it as a bad request; the client reports it as a protocol
// failure of the server it talked to.
var ErrBadFrame = errors.New("malformed frame")

const (
	frameQueryRequest  byte = 'Q'
	frameQueryResponse byte = 'R'
	frameInsertRequest byte = 'I'
	frameRemoveRequest byte = 'D'

	queryIfVersion byte = 1
	queryProof     byte = 2
	queryFlags          = queryIfVersion | queryProof

	respExhausted byte = 1
	respUnchanged byte = 2
	respProof     byte = 4
	respFlags          = respExhausted | respUnchanged | respProof
)

// Smallest encodings, for bounding counts by the bytes that remain.
const (
	minTokenFrame    = 4 // userLen, group, expiry, macLen
	minQueryFrame    = 4 // list, offset, count, flags
	minResponseFrame = 3 // flags, version, numElems
	minInsertFrame   = 1 + store.MinElementRecord
	minRemoveFrame   = 2 // list, sealedLen
)

// AppendFrame appends r as a 'Q' frame.
func (r *QueryBatchRequest) AppendFrame(dst []byte) []byte {
	dst = append(dst, frameQueryRequest)
	dst = binary.AppendUvarint(dst, uint64(len(r.Tokens)))
	for i := range r.Tokens {
		dst = appendToken(dst, &r.Tokens[i])
	}
	dst = binary.AppendUvarint(dst, uint64(len(r.Queries)))
	for _, q := range r.Queries {
		dst = binary.AppendUvarint(dst, uint64(q.List))
		dst = binary.AppendVarint(dst, int64(q.Offset))
		dst = binary.AppendVarint(dst, int64(q.Count))
		var flags byte
		if q.IfVersion != nil {
			flags |= queryIfVersion
		}
		if q.Proof {
			flags |= queryProof
		}
		dst = append(dst, flags)
		if q.IfVersion != nil {
			dst = binary.AppendUvarint(dst, *q.IfVersion)
		}
	}
	return dst
}

// UnmarshalFrame decodes a 'Q' frame into r. Token MACs alias b.
func (r *QueryBatchRequest) UnmarshalFrame(b []byte) error {
	d, err := openFrame(b, frameQueryRequest)
	if err != nil {
		return err
	}
	if n := d.Count(minTokenFrame); n > 0 {
		r.Tokens = make([]crypt.Token, n)
		for i := range r.Tokens {
			r.Tokens[i] = readToken(d)
		}
	}
	n, err := batchCount(d, minQueryFrame)
	if err != nil {
		return err
	}
	if n > 0 {
		r.Queries = make([]ListQuery, n)
		for i := range r.Queries {
			q := &r.Queries[i]
			q.List = readList(d)
			q.Offset, q.Count = d.Int(), d.Int()
			flags := d.Byte()
			if flags&^queryFlags != 0 {
				d.Fail()
			}
			if flags&queryIfVersion != 0 {
				v := d.Uvarint()
				q.IfVersion = &v
			}
			q.Proof = flags&queryProof != 0
		}
	}
	return closeFrame(d, "query request")
}

// AppendFrame appends r as an 'R' frame.
func (r *QueryBatchResponse) AppendFrame(dst []byte) []byte {
	dst = append(dst, frameQueryResponse)
	dst = binary.AppendUvarint(dst, uint64(len(r.Responses)))
	for i := range r.Responses {
		resp := &r.Responses[i]
		var flags byte
		if resp.Exhausted {
			flags |= respExhausted
		}
		if resp.Unchanged {
			flags |= respUnchanged
		}
		if resp.Proof != nil {
			flags |= respProof
		}
		dst = append(dst, flags)
		dst = binary.AppendUvarint(dst, resp.Version)
		dst = binary.AppendUvarint(dst, uint64(len(resp.Elements)))
		for _, el := range resp.Elements {
			dst = store.AppendElement(dst, el)
		}
		if resp.Proof != nil {
			dst = resp.Proof.AppendBinary(dst)
		}
	}
	return dst
}

// UnmarshalFrame decodes an 'R' frame into r. Each response's sealed
// payloads, proof boundaries included, are copied into one buffer of
// that response's own: a window a cache retains then pins its own
// bytes, not the whole body it arrived in. b is not retained.
func (r *QueryBatchResponse) UnmarshalFrame(b []byte) error {
	d, err := openFrame(b, frameQueryResponse)
	if err != nil {
		return err
	}
	n, err := batchCount(d, minResponseFrame)
	if err != nil {
		return err
	}
	if n > 0 {
		r.Responses = make([]QueryResponse, n)
		for i := range r.Responses {
			resp := &r.Responses[i]
			flags := d.Byte()
			if flags&^respFlags != 0 {
				d.Fail()
			}
			resp.Exhausted = flags&respExhausted != 0
			resp.Unchanged = flags&respUnchanged != 0
			resp.Version = d.Uvarint()
			if m := d.Count(store.MinElementRecord); m > 0 {
				resp.Elements = make([]StoredElement, m)
				for j := range resp.Elements {
					resp.Elements[j] = readElement(d)
				}
			}
			if flags&respProof != 0 {
				if resp.Proof, err = proof.ReadWindow(d); err != nil {
					return fmt.Errorf("%w: query response %d: %w", ErrBadFrame, i, err)
				}
			}
			resp.ownPayloads()
		}
	}
	return closeFrame(d, "query response")
}

// ownPayloads moves the response's sealed payloads into one new buffer.
func (resp *QueryResponse) ownPayloads() {
	var bounds []*proof.Boundary
	if resp.Proof != nil {
		for _, g := range resp.Proof.Groups {
			for _, b := range []*proof.Boundary{g.Pred, g.Succ} {
				if b != nil {
					bounds = append(bounds, b)
				}
			}
		}
	}
	n := 0
	for _, el := range resp.Elements {
		n += len(el.Sealed)
	}
	for _, b := range bounds {
		n += len(b.Sealed)
	}
	buf := make([]byte, 0, n)
	for i := range resp.Elements {
		off := len(buf)
		buf = append(buf, resp.Elements[i].Sealed...)
		resp.Elements[i].Sealed = buf[off:len(buf):len(buf)]
	}
	for _, b := range bounds {
		off := len(buf)
		buf = append(buf, b.Sealed...)
		b.Sealed = buf[off:len(buf):len(buf)]
	}
}

// AppendFrame appends r as an 'I' frame.
func (r *InsertBatchRequest) AppendFrame(dst []byte) []byte {
	dst = append(dst, frameInsertRequest)
	dst = appendToken(dst, &r.Token)
	dst = binary.AppendUvarint(dst, uint64(len(r.Ops)))
	for _, op := range r.Ops {
		dst = binary.AppendUvarint(dst, uint64(op.List))
		dst = store.AppendElement(dst, op.Element)
	}
	return dst
}

// UnmarshalFrame decodes an 'I' frame into r. Sealed payloads are
// copied out of b, because the store keeps them.
func (r *InsertBatchRequest) UnmarshalFrame(b []byte) error {
	d, err := openFrame(b, frameInsertRequest)
	if err != nil {
		return err
	}
	r.Token = readToken(d)
	n, err := batchCount(d, minInsertFrame)
	if err != nil {
		return err
	}
	if n > 0 {
		r.Ops = make([]InsertOp, n)
		for i := range r.Ops {
			r.Ops[i].List = readList(d)
			el := readElement(d)
			el.Sealed = append([]byte{}, el.Sealed...)
			r.Ops[i].Element = el
		}
	}
	return closeFrame(d, "insert request")
}

// AppendFrame appends r as a 'D' frame.
func (r *RemoveBatchRequest) AppendFrame(dst []byte) []byte {
	dst = append(dst, frameRemoveRequest)
	dst = appendToken(dst, &r.Token)
	dst = binary.AppendUvarint(dst, uint64(len(r.Ops)))
	for _, op := range r.Ops {
		dst = binary.AppendUvarint(dst, uint64(op.List))
		dst = binary.AppendUvarint(dst, uint64(len(op.Sealed)))
		dst = append(dst, op.Sealed...)
	}
	return dst
}

// UnmarshalFrame decodes a 'D' frame into r. Sealed payloads alias b;
// removal only compares them.
func (r *RemoveBatchRequest) UnmarshalFrame(b []byte) error {
	d, err := openFrame(b, frameRemoveRequest)
	if err != nil {
		return err
	}
	r.Token = readToken(d)
	n, err := batchCount(d, minRemoveFrame)
	if err != nil {
		return err
	}
	if n > 0 {
		r.Ops = make([]RemoveOp, n)
		for i := range r.Ops {
			r.Ops[i] = RemoveOp{List: readList(d), Sealed: d.Bytes()}
		}
	}
	return closeFrame(d, "remove request")
}

func openFrame(b []byte, kind byte) (*wire.Decoder, error) {
	if len(b) == 0 || b[0] != kind {
		return nil, fmt.Errorf("%w: want a %q frame", ErrBadFrame, kind)
	}
	d := wire.NewDecoder(b)
	d.Skip(1)
	return d, nil
}

// batchCount reads an operation count, bounded by the bytes that
// remain and by MaxBatchOps.
func batchCount(d *wire.Decoder, size int) (int, error) {
	n := d.Count(size)
	if n > MaxBatchOps {
		return 0, fmt.Errorf("%w: batch of %d operations exceeds the maximum %d", ErrBadFrame, n, MaxBatchOps)
	}
	return n, nil
}

func closeFrame(d *wire.Decoder, what string) error {
	if d.Failed() {
		return fmt.Errorf("%w: truncated or invalid %s", ErrBadFrame, what)
	}
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("%w: %d trailing bytes after %s", ErrBadFrame, n, what)
	}
	return nil
}

func appendToken(dst []byte, t *crypt.Token) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t.User)))
	dst = append(dst, t.User...)
	dst = binary.AppendVarint(dst, int64(t.Group))
	dst = binary.AppendVarint(dst, t.Expiry.UnixNano())
	dst = binary.AppendUvarint(dst, uint64(len(t.MAC)))
	return append(dst, t.MAC...)
}

func readToken(d *wire.Decoder) crypt.Token {
	return crypt.Token{
		User:   string(d.Bytes()),
		Group:  d.Int(),
		Expiry: time.Unix(0, d.Varint()),
		MAC:    d.Bytes(),
	}
}

func readList(d *wire.Decoder) zerber.ListID {
	v := d.Uvarint()
	if v > math.MaxUint32 {
		d.Fail()
	}
	return zerber.ListID(v)
}

func readElement(d *wire.Decoder) StoredElement {
	if d.Failed() {
		return StoredElement{}
	}
	el, n, err := store.ReadElement(d.Rest())
	if err != nil {
		d.Fail()
	}
	d.Skip(n)
	return el
}
