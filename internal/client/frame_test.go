package client

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"zerberr/internal/crypt"
	"zerberr/internal/server"
)

// TestHTTPBatchOpsSpeakFrames: every batch exchange client.HTTP makes
// — index, search, delete — is a binary frame both ways.
func TestHTTPBatchOpsSpeakFrames(t *testing.T) {
	h := newHarness(t, crypt.GCMCodec{}, 29)
	var mu sync.Mutex
	seen := map[string]int{}
	inner := h.srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		switch r.URL.Path {
		case "/v2/query", "/v2/insert", "/v2/remove":
			mu.Lock()
			defer mu.Unlock()
			if ct := r.Header.Get("Content-Type"); ct != server.FrameContentType {
				t.Errorf("%s sent as %q", r.URL.Path, ct)
			}
			if ct := w.Header().Get("Content-Type"); ct != server.FrameContentType {
				t.Errorf("%s answered as %q", r.URL.Path, ct)
			}
			seen[r.URL.Path]++
		}
	}))
	defer ts.Close()
	remote, err := New(HTTP{BaseURL: ts.URL}, Config{Plan: h.plan, Store: h.store, Keys: h.keys})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := remote.Login(ctx, "writer"); err != nil {
		t.Fatal(err)
	}
	doc := h.c.Docs[3]
	if _, err := remote.DeleteDocument(ctx, doc, doc.Group); err != nil {
		t.Fatal(err)
	}
	if err := remote.IndexDocument(ctx, doc, doc.Group); err != nil {
		t.Fatal(err)
	}
	if _, _, err := remote.Search(ctx, multiTermQueries(h)[0], 10); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, p := range []string{"/v2/query", "/v2/insert", "/v2/remove"} {
		if seen[p] == 0 {
			t.Errorf("no %s exchange observed", p)
		}
	}
}

// honestResponseFrames builds /v2/query response frames an honest
// server sends: plain and proved windows over a three-group list, an
// exhausted empty window, and an Unchanged answer.
func honestResponseFrames(t testing.TB) [][]byte {
	t.Helper()
	ctx := context.Background()
	s := server.New([]byte("fuzz-secret"), time.Hour)
	s.RegisterUser("u", 0, 1)
	s.RegisterUser("w", 0, 1, 2)
	wt, err := s.Login(ctx, "w")
	if err != nil {
		t.Fatal(err)
	}
	for g, tok := range wt {
		var ops []server.InsertOp
		for i := 0; i < 3; i++ {
			ops = append(ops, server.InsertOp{List: 1, Element: server.StoredElement{
				Sealed: []byte{byte(g), byte(i), 0xa5}, TRS: float64(9-3*i-g) / 10, Group: tok.Group}})
		}
		if err := s.InsertBatch(ctx, tok, ops); err != nil {
			t.Fatal(err)
		}
	}
	toks, err := s.Login(ctx, "u")
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for _, qs := range [][]server.ListQuery{
		{{List: 1, Offset: 0, Count: 2}},
		{{List: 1, Offset: 1, Count: 3, Proof: true}, {List: 1, Offset: 0, Count: 9, Proof: true}},
		{{List: 1, Offset: 50, Count: 4}},
	} {
		resps, err := s.QueryBatch(ctx, toks, qs)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, (&server.QueryBatchResponse{Responses: resps}).AppendFrame(nil))
	}
	unchanged := server.QueryBatchResponse{Responses: []server.QueryResponse{{Version: 5, Unchanged: true}}}
	return append(frames, unchanged.AppendFrame(nil))
}

// FuzzQueryFrameResponse hardens the client against a hostile server:
// any response body must decode without panicking, fail only with
// server.ErrBadFrame, and — when it decodes — survive a re-encode
// (the re-encoded frame decodes to a value that encodes identically).
func FuzzQueryFrameResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("R"))
	f.Add([]byte("R\x01\x07\x00\x00"))
	for _, frame := range honestResponseFrames(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resps, err := decodeQueryFrame(data)
		if err != nil {
			if !errors.Is(err, server.ErrBadFrame) {
				t.Fatalf("decode error outside ErrBadFrame: %v", err)
			}
			return
		}
		enc := (&server.QueryBatchResponse{Responses: resps}).AppendFrame(nil)
		again, err := decodeQueryFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if got := (&server.QueryBatchResponse{Responses: again}).AppendFrame(nil); !bytes.Equal(got, enc) {
			t.Fatalf("decode(encode(x)) != x:\n got %x\nwant %x", got, enc)
		}
	})
}

// TestHonestResponseFramesDecode pins the fuzz seeds' source: every
// honest frame decodes and re-encodes to itself.
func TestHonestResponseFramesDecode(t *testing.T) {
	for i, frame := range honestResponseFrames(t) {
		resps, err := decodeQueryFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := (&server.QueryBatchResponse{Responses: resps}).AppendFrame(nil); !bytes.Equal(got, frame) {
			t.Fatalf("frame %d re-encodes differently", i)
		}
	}
}
