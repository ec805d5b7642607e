package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/server"
	"zerberr/internal/store"
	"zerberr/internal/workload"
	"zerberr/internal/zerber"
)

// Span names, one per layer boundary the traced run wraps.
const (
	spanClientSearch = "client.search"
	spanClientIndex  = "client.index"
	spanClientDelete = "client.delete"
	// Client → Router (tracedRouter).
	spanClusterQuery  = "cluster.query"
	spanClusterInsert = "cluster.insert"
	spanClusterRemove = "cluster.remove"
	// Replica set → one member's client.HTTP (tracedMember).
	spanMemberQuery  = "member.query"
	spanMemberInsert = "member.insert"
	spanMemberRemove = "member.remove"
	// server.Handler (recorder.middleware).
	spanServerQuery  = "server.query"
	spanServerInsert = "server.insert"
	spanServerRemove = "server.remove"
	spanServerOther  = "server.other"
	// store.Backend (tracedBackend): no context, so no parent.
	spanStoreQuery  = "store.query"
	spanStoreProved = "store.proved"
	spanStoreInsert = "store.insert_batch"
	spanStoreRemove = "store.remove"
	spanStoreView   = "store.view"
)

var opSpanName = map[workload.OpKind]string{
	workload.OpSearch: spanClientSearch,
	workload.OpInsert: spanClientIndex,
	workload.OpRemove: spanClientDelete,
}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch. Spans of one client operation share req; parent
// is the span that caused this one (0 for roots and store spans).
// srv is the member index of server and store spans, -1 elsewhere.
type span struct {
	id, parent, req uint64
	name            string
	srv             int
	start, end      int64
	status          int // HTTP status, server spans only
}

// spanCtx is what travels in a context and, across HTTP, in the
// spanHeader: the request ID and the calling span.
type spanCtx struct{ req, id uint64 }

type spanCtxKey struct{}

// spanHeader carries "req/span" from the member call to the server
// middleware.
const spanHeader = "X-Stackbench-Span"

// recorder keeps spans and layer counters in memory while switched
// on. A nil recorder (plain runs) records nothing.
type recorder struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	// Member-call counters (tracedMember).
	memberQueries atomic.Int64 // QueryBatch calls
	subQueries    atomic.Int64 // sub-queries in them
	unchanged     atomic.Int64 // sub-responses answered Unchanged
	wireBytes     atomic.Int64 // response bytes of QueryBatch calls
	// provedSub counts proof-carrying sub-queries the clients sent.
	provedSub atomic.Int64
	// canceled500 counts 500 answers to requests whose context was
	// canceled: hedge losers, not failures anyone sees.
	canceled500 atomic.Int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// active is an open span; the zero value (tracing off) is inert.
type active struct {
	sp   span
	open bool
}

func (r *recorder) begin(ctx context.Context, name string) (context.Context, active) {
	parent, _ := ctx.Value(spanCtxKey{}).(spanCtx)
	sp := span{id: r.nextID.Add(1), parent: parent.id, req: parent.req, name: name, srv: -1, start: r.now()}
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{req: sp.req, id: sp.id}), active{sp: sp, open: true}
}

// beginOp opens a client operation's root span under a fresh request
// ID.
func (r *recorder) beginOp(ctx context.Context, name string) (context.Context, active) {
	id := r.nextID.Add(1)
	sp := span{id: id, req: id, name: name, srv: -1, start: r.now()}
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{req: id, id: id}), active{sp: sp, open: true}
}

func (r *recorder) end(a active) {
	if !a.open {
		return
	}
	a.sp.end = r.now()
	r.add(a.sp)
}

func (r *recorder) add(sp span) {
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// recorded copies the spans recorded so far. A hedge loser's handler
// can still be finishing after recording stopped, so reads lock too.
func (r *recorder) recorded() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// spanHeaderRT is the benchmark's http.RoundTripper: it puts the
// caller's span into spanHeader when the request context carries one
// (traced runs) and is a plain pass-through otherwise.
type spanHeaderRT struct{ base http.RoundTripper }

func (t spanHeaderRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if sc, ok := req.Context().Value(spanCtxKey{}).(spanCtx); ok {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(sc.req, 10)+"/"+strconv.FormatUint(sc.id, 10))
	}
	return t.base.RoundTrip(req)
}

// statusWriter captures the status a handler answered with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// middleware times member srv's handler per request, parented to the
// member call named in spanHeader.
func (r *recorder) middleware(srv int, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		var sc spanCtx
		if h := req.Header.Get(spanHeader); h != "" {
			a, b, _ := strings.Cut(h, "/")
			sc.req, _ = strconv.ParseUint(a, 10, 64)
			sc.id, _ = strconv.ParseUint(b, 10, 64)
		}
		start := r.now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, req)
		if sw.status == http.StatusInternalServerError && req.Context().Err() != nil {
			r.canceled500.Add(1)
		}
		name := spanServerOther
		switch req.URL.Path {
		case "/v2/query":
			name = spanServerQuery
		case "/v2/insert":
			name = spanServerInsert
		case "/v2/remove":
			name = spanServerRemove
		}
		r.add(span{id: r.nextID.Add(1), parent: sc.id, req: sc.req, name: name, srv: srv, start: start, end: r.now(), status: sw.status})
	})
}

// tracedBackend times the store calls of member srv. Backend calls
// carry no context, so its spans are attributed per server only.
type tracedBackend struct {
	store.Backend
	rec *recorder
	srv int
}

func (b *tracedBackend) timed(name string, start int64) {
	if b.rec.on.Load() {
		b.rec.add(span{id: b.rec.nextID.Add(1), name: name, srv: b.srv, start: start, end: b.rec.now()})
	}
}

func (b *tracedBackend) Query(list zerber.ListID, allowed map[int]bool, offset, count int) (store.QueryResult, error) {
	defer b.timed(spanStoreQuery, b.rec.now())
	return b.Backend.Query(list, allowed, offset, count)
}

func (b *tracedBackend) QueryProved(list zerber.ListID, allowed map[int]bool, offset, count int) (store.QueryResult, error) {
	defer b.timed(spanStoreProved, b.rec.now())
	return b.Backend.QueryProved(list, allowed, offset, count)
}

func (b *tracedBackend) InsertBatch(ops []store.BatchInsert) error {
	defer b.timed(spanStoreInsert, b.rec.now())
	return b.Backend.InsertBatch(ops)
}

func (b *tracedBackend) Remove(list zerber.ListID, sealed []byte, allow func(group int) bool) error {
	defer b.timed(spanStoreRemove, b.rec.now())
	return b.Backend.Remove(list, sealed, allow)
}

func (b *tracedBackend) View(list zerber.ListID, fn func(elems []store.Element)) error {
	defer b.timed(spanStoreView, b.rec.now())
	return b.Backend.View(list, fn)
}

// tracedMember times one member's client.HTTP calls. Embedding
// forwards everything else, client.ShardAdmin included (replica
// resync type-asserts it).
type tracedMember struct {
	client.HTTP
	rec *recorder
}

func (m *tracedMember) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (client.BatchQueryResult, error) {
	if !m.rec.on.Load() {
		return m.HTTP.QueryBatch(ctx, toks, queries)
	}
	ctx, sp := m.rec.begin(ctx, spanMemberQuery)
	res, err := m.HTTP.QueryBatch(ctx, toks, queries)
	m.rec.end(sp)
	m.rec.memberQueries.Add(1)
	m.rec.subQueries.Add(int64(len(queries)))
	m.rec.wireBytes.Add(int64(res.WireBytes))
	for _, resp := range res.Responses {
		if resp.Unchanged {
			m.rec.unchanged.Add(1)
		}
	}
	return res, err
}

func (m *tracedMember) InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	ctx, sp := m.rec.maybeBegin(ctx, spanMemberInsert)
	defer m.rec.end(sp)
	return m.HTTP.InsertBatch(ctx, tok, ops)
}

func (m *tracedMember) RemoveBatch(ctx context.Context, tok crypt.Token, ops []server.RemoveOp) error {
	ctx, sp := m.rec.maybeBegin(ctx, spanMemberRemove)
	defer m.rec.end(sp)
	return m.HTTP.RemoveBatch(ctx, tok, ops)
}

// maybeBegin opens a span only while recording.
func (r *recorder) maybeBegin(ctx context.Context, name string) (context.Context, active) {
	if !r.on.Load() {
		return ctx, active{}
	}
	return r.begin(ctx, name)
}

// tracedRouter sits between the clients and the cluster router and
// times the batch calls; embedding forwards the rest. It wraps the
// router, never a replica set: the router type-asserts its shards to
// *replica.Set.
type tracedRouter struct {
	client.Transport
	rec *recorder
}

func (t *tracedRouter) QueryBatch(ctx context.Context, toks []crypt.Token, queries []server.ListQuery) (client.BatchQueryResult, error) {
	ctx, sp := t.rec.maybeBegin(ctx, spanClusterQuery)
	defer t.rec.end(sp)
	if sp.open {
		for _, q := range queries {
			if q.Proof {
				t.rec.provedSub.Add(1)
			}
		}
	}
	return t.Transport.QueryBatch(ctx, toks, queries)
}

func (t *tracedRouter) InsertBatch(ctx context.Context, tok crypt.Token, ops []server.InsertOp) error {
	ctx, sp := t.rec.maybeBegin(ctx, spanClusterInsert)
	defer t.rec.end(sp)
	return t.Transport.InsertBatch(ctx, tok, ops)
}

func (t *tracedRouter) RemoveBatch(ctx context.Context, tok crypt.Token, ops []server.RemoveOp) error {
	ctx, sp := t.rec.maybeBegin(ctx, spanClusterRemove)
	defer t.rec.end(sp)
	return t.Transport.RemoveBatch(ctx, tok, ops)
}

var (
	_ client.Transport  = (*tracedRouter)(nil)
	_ client.Transport  = (*tracedMember)(nil)
	_ client.ShardAdmin = (*tracedMember)(nil)
	_ store.Backend     = (*tracedBackend)(nil)
)

// writeSpans dumps spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, sp := range spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"req":%d,"name":%q,"srv":%d,"start_ns":%d,"end_ns":%d,"status":%d}`+"\n",
			sp.id, sp.parent, sp.req, sp.name, sp.srv, sp.start, sp.end, sp.status)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
