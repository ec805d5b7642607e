package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"zerberr/internal/crypt"
	"zerberr/internal/zerber"
)

// newCancelServer builds a server holding a few lists and returns it
// with a logged-in user's tokens.
func newCancelServer(t *testing.T) (*Server, []crypt.Token) {
	t.Helper()
	s := New([]byte("ctx-secret"), time.Hour)
	s.RegisterUser("u", 0)
	toks, err := s.Login(context.Background(), "u")
	if err != nil {
		t.Fatal(err)
	}
	for list := 0; list < 8; list++ {
		el := StoredElement{Sealed: []byte{byte(list)}, TRS: 0.5, Group: 0}
		if err := insertOne(context.Background(), s, toks[0], zerber.ListID(list), el); err != nil {
			t.Fatal(err)
		}
	}
	return s, toks
}

// TestServerMethodsPreCanceledContext verifies every request-serving
// method rejects an already-canceled context with context.Canceled
// rather than doing work.
func TestServerMethodsPreCanceledContext(t *testing.T) {
	s, toks := newCancelServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := s.Login(ctx, "u"); !errors.Is(err, context.Canceled) {
		t.Errorf("Login err = %v", err)
	}
	el := StoredElement{Sealed: []byte{200}, TRS: 0.1, Group: 0}
	if _, err := s.QueryBatch(ctx, toks, []ListQuery{{List: 0, Offset: 0, Count: 10}}); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryBatch err = %v", err)
	}
	if err := s.InsertBatch(ctx, toks[0], []InsertOp{{List: 0, Element: el}}); !errors.Is(err, context.Canceled) {
		t.Errorf("InsertBatch err = %v", err)
	}
	if err := s.RemoveBatch(ctx, toks[0], []RemoveOp{{List: 0, Sealed: []byte{0}}}); !errors.Is(err, context.Canceled) {
		t.Errorf("RemoveBatch err = %v", err)
	}
	if _, err := s.StatsV2(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("StatsV2 err = %v", err)
	}
	// Sanity: the index was untouched by the canceled writes.
	if n := s.NumElements(); n != 8 {
		t.Fatalf("canceled operations changed the index: %d elements, want 8", n)
	}
}

// TestQueryBatchSubErrorStillPrecise confirms the sibling-abort path
// keeps reporting a real sub-query failure with a batch index rather
// than masking it as a cancellation.
func TestQueryBatchSubErrorStillPrecise(t *testing.T) {
	s, toks := newCancelServer(t)
	queries := []ListQuery{
		{List: 0, Offset: 0, Count: 10},
		{List: 999, Offset: 0, Count: 10}, // unknown list
		{List: 1, Offset: 0, Count: 10},
	}
	_, err := s.QueryBatch(context.Background(), toks, queries)
	if !errors.Is(err, ErrUnknownList) {
		t.Fatalf("QueryBatch err = %v, want ErrUnknownList", err)
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("failure not attributed to op 1: %v", err)
	}
}
