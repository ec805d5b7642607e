package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// honestFrames returns one frame of every kind as an honest client and
// server produce them: a query request with conditional and proved
// sub-queries, the proved response to it, and an insert and a remove
// batch.
func honestFrames(t *testing.T) map[string][]byte {
	t.Helper()
	s, _, toks := proofTestServer(t)
	v := uint64(7)
	qreq := QueryBatchRequest{Tokens: toks, Queries: []ListQuery{
		{List: 1, Offset: 0, Count: 2, Proof: true},
		{List: 1, Offset: 1, Count: 2, IfVersion: &v},
		{List: 9, Offset: 0, Count: 1},
	}}
	resps, err := s.QueryBatch(context.Background(), toks, qreq.Queries[:2])
	if err != nil {
		t.Fatal(err)
	}
	qresp := QueryBatchResponse{Responses: resps}
	ins := InsertBatchRequest{Token: toks[0], Ops: []InsertOp{
		{List: 1, Element: StoredElement{Sealed: []byte("x1"), TRS: 0.25, Group: 0}},
		{List: 70000, Element: StoredElement{Sealed: []byte("x2"), TRS: -1, Group: 1}},
	}}
	rem := RemoveBatchRequest{Token: toks[1], Ops: []RemoveOp{{List: 1, Sealed: []byte("a1")}, {List: 4, Sealed: []byte("zz")}}}
	return map[string][]byte{
		"query_request":  qreq.AppendFrame(nil),
		"query_response": qresp.AppendFrame(nil),
		"insert_request": ins.AppendFrame(nil),
		"remove_request": rem.AppendFrame(nil),
	}
}

// decodeAny decodes data with the decoder its kind byte selects and
// returns the re-encoding of what it decoded.
func decodeAny(data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, (&QueryBatchRequest{}).UnmarshalFrame(data)
	}
	switch data[0] {
	case frameQueryResponse:
		var v QueryBatchResponse
		if err := v.UnmarshalFrame(data); err != nil {
			return nil, err
		}
		return v.AppendFrame(nil), nil
	case frameInsertRequest:
		var v InsertBatchRequest
		if err := v.UnmarshalFrame(data); err != nil {
			return nil, err
		}
		return v.AppendFrame(nil), nil
	case frameRemoveRequest:
		var v RemoveBatchRequest
		if err := v.UnmarshalFrame(data); err != nil {
			return nil, err
		}
		return v.AppendFrame(nil), nil
	}
	var v QueryBatchRequest
	if err := v.UnmarshalFrame(data); err != nil {
		return nil, err
	}
	return v.AppendFrame(nil), nil
}

func TestFrameRoundTrip(t *testing.T) {
	for name, frame := range honestFrames(t) {
		again, err := decodeAny(frame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(again, frame) {
			t.Errorf("%s: re-encoding differs:\n got %x\nwant %x", name, again, frame)
		}
	}
}

// TestFrameMatchesJSON posts the same proved query in both codecs and
// requires identical decoded responses, proofs included.
func TestFrameMatchesJSON(t *testing.T) {
	_, ts, toks := proofTestServer(t)
	req := QueryBatchRequest{Tokens: toks, Queries: []ListQuery{
		{List: 1, Offset: 0, Count: 3, Proof: true},
		{List: 1, Offset: 3, Count: 3},
	}}
	var viaJSON QueryBatchResponse
	resp := post(t, ts, "/v2/query", req)
	if err := json.NewDecoder(resp.Body).Decode(&viaJSON); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err := http.Post(ts.URL+"/v2/query", FrameContentType, bytes.NewReader(req.AppendFrame(nil)))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != FrameContentType {
		t.Fatalf("frame query: status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var viaFrame QueryBatchResponse
	if err := viaFrame.UnmarshalFrame(raw); err != nil {
		t.Fatal(err)
	}
	if viaFrame.Responses[0].Proof == nil || len(viaFrame.Responses[0].Elements) == 0 {
		t.Fatalf("frame response lost its window or proof: %+v", viaFrame.Responses[0])
	}
	if !reflect.DeepEqual(viaFrame, viaJSON) {
		t.Fatalf("codecs disagree:\nframe %+v\njson  %+v", viaFrame, viaJSON)
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	for name, frame := range honestFrames(t) {
		for n := 0; n < len(frame); n++ {
			if _, err := decodeAny(frame[:n]); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s truncated to %d bytes: err = %v, want ErrBadFrame", name, n, err)
			}
		}
		if _, err := decodeAny(append(append([]byte{}, frame...), 0)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s with a trailing byte: err = %v, want ErrBadFrame", name, err)
		}
	}
	// A count the remaining bytes cannot hold fails before allocating.
	huge := binary.AppendUvarint([]byte{frameQueryRequest}, 1<<60)
	if err := (&QueryBatchRequest{}).UnmarshalFrame(huge); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("forged token count: err = %v", err)
	}
	// A batch over MaxBatchOps fails even when the bytes are there.
	over := binary.AppendUvarint([]byte{frameQueryRequest, 0}, MaxBatchOps+1)
	over = append(over, make([]byte, minQueryFrame*(MaxBatchOps+1))...)
	err := (&QueryBatchRequest{}).UnmarshalFrame(over)
	if !errors.Is(err, ErrBadFrame) || !strings.Contains(err.Error(), "maximum") {
		t.Fatalf("oversized batch: err = %v", err)
	}
	// The kind byte keeps one endpoint's frame out of another.
	var ins InsertBatchRequest
	if err := ins.UnmarshalFrame(honestFrames(t)["remove_request"]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("remove frame decoded as insert: err = %v", err)
	}
}

// TestInsertFrameCopiesSealed: the store keeps inserted payloads, so
// they must not alias the request buffer.
func TestInsertFrameCopiesSealed(t *testing.T) {
	frame := honestFrames(t)["insert_request"]
	var req InsertBatchRequest
	if err := req.UnmarshalFrame(frame); err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0
	}
	if string(req.Ops[0].Element.Sealed) != "x1" || string(req.Ops[1].Element.Sealed) != "x2" {
		t.Fatalf("sealed payloads alias the request: %q %q", req.Ops[0].Element.Sealed, req.Ops[1].Element.Sealed)
	}
}

// TestRequestBodyCap: each codec accepts a full batch of ceiling-sized
// payloads and answers a body over MaxRequestBody with bad_request.
func TestRequestBodyCap(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("john", 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	toks, err := s.Login(context.Background(), "john")
	if err != nil {
		t.Fatal(err)
	}
	full := InsertBatchRequest{Token: toks[0], Ops: make([]InsertOp, MaxBatchOps)}
	for i := range full.Ops {
		sealed := bytes.Repeat([]byte{byte(i), byte(i >> 8)}, maxSealedBytes/2)
		full.Ops[i] = InsertOp{List: 1, Element: StoredElement{Sealed: sealed, TRS: 0.5, Group: 0}}
	}
	fullJSON, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	pad := bytes.Repeat([]byte{' '}, MaxRequestBody)
	for _, c := range []struct {
		name, contentType string
		fits, tooBig      []byte
	}{
		{"json", "application/json", fullJSON, append([]byte(`{"ops":[`), append(pad, "]}"...)...)},
		{"frame", FrameContentType, full.AppendFrame(nil), append(full.AppendFrame(nil), pad...)},
	} {
		resp, err := http.Post(ts.URL+"/v2/insert", c.contentType, bytes.NewReader(c.fits))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: full batch of %d-byte payloads (%d-byte body): status %d", c.name, maxSealedBytes, len(c.fits), resp.StatusCode)
		}
		resp, err = http.Post(ts.URL+"/v2/insert", c.contentType, bytes.NewReader(c.tooBig))
		if err != nil {
			t.Fatal(err)
		}
		env := decodeV2Err(t, resp)
		if resp.StatusCode != http.StatusBadRequest || env.Code != CodeBadRequest || !strings.Contains(env.Error, "exceeds") {
			t.Fatalf("%s: oversized body: status %d, envelope %+v", c.name, resp.StatusCode, env)
		}
	}
	if got := s.NumElements(); got != 2*MaxBatchOps {
		t.Fatalf("store holds %d elements, want %d", got, 2*MaxBatchOps)
	}
}

// TestCanceledRequestIs499: a request whose own context is done is the
// client's doing — answered 499 and logged at Debug, never a 500 WARN.
func TestCanceledRequestIs499(t *testing.T) {
	s := New(secret, time.Hour)
	s.RegisterUser("john", 0)
	toks, err := s.Login(context.Background(), "john")
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	s.SetLogger(slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})))
	h := s.Handler()
	req := QueryBatchRequest{Tokens: toks, Queries: []ListQuery{{List: 1, Count: 1}}}
	for _, c := range []struct {
		name, contentType string
		body              []byte
	}{
		{"frame", FrameContentType, req.AppendFrame(nil)},
		{"json", "application/json", mustJSON(t, req)},
	} {
		logs.Reset()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		r := httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(c.body)).WithContext(ctx)
		r.Header.Set("Content-Type", c.contentType)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != StatusClientClosedRequest {
			t.Fatalf("%s: canceled request answered %d, want %d", c.name, w.Code, StatusClientClosedRequest)
		}
		if out := logs.String(); strings.Contains(out, "level=WARN") || !strings.Contains(out, "level=DEBUG") {
			t.Fatalf("%s: canceled request logged as:\n%s", c.name, out)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzRequestFrames feeds arbitrary bytes to every frame decoder the
// server runs on request bodies (and the query-response decoder the
// client runs): decoding must never panic, must fail only with
// ErrBadFrame, and whatever decodes must survive a re-encode: the
// re-encoded frame decodes to a value that encodes identically. (The
// check compares encodings rather than values, so NaN scores and
// nil-versus-empty slices — one encoding each — compare equal.)
func FuzzRequestFrames(f *testing.F) {
	f.Add([]byte{})
	for _, kind := range []byte{frameQueryRequest, frameQueryResponse, frameInsertRequest, frameRemoveRequest} {
		f.Add([]byte{kind})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		enc, err := decodeAny(data)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("decode error outside ErrBadFrame: %v", err)
			}
			return
		}
		again, err := decodeAny(enc)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("decode(encode(x)) != x:\n got %x\nwant %x", again, enc)
		}
	})
}
