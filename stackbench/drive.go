package main

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"slices"
	"sync"
	"time"

	zerberr "zerberr"
	"zerberr/internal/client"
	"zerberr/internal/corpus"
	"zerberr/internal/workload"
)

// Workload shape shared by every mix.
const (
	corpusDocs = 1000
	topK       = 10
	// probeDocBase is the first document ID of the probe phase's
	// documents, far above anything the main stream mints.
	probeDocBase = 1 << 30
	// streamUsers is the simulated user population. At the stream's
	// default million users most removes find no live document of
	// their user and turn into inserts; a thousand users keep the
	// realized delete share near the mix's.
	streamUsers = 1000
)

// spec is one traffic mix. Fractions feed workload.StreamConfig.
type spec struct {
	search, index, delete float64
	// proved asks every search for a Merkle proof (client.WithProof).
	proved bool
	// warmupOps is the stream prefix run before timing: enough to fill
	// the result caches (and, proved, build the lazy commitments).
	warmupOps uint64
	// probeIndex and probeDelete size the post-window probe of op
	// kinds the mix lacks, so every end-to-end metric is measured on
	// every workload (see README.md).
	probeIndex, probeDelete int
}

var specs = map[string]spec{
	"search": {search: 1, warmupOps: 2000, probeIndex: 1000, probeDelete: 200},
	"churn":  {search: 0.6, index: 0.3, delete: 0.1, warmupOps: 400},
	"audit":  {search: 0.9, index: 0.1, proved: true, warmupOps: 1000, probeDelete: 200},
}

// sample is one operation as its caller saw it.
type sample struct {
	kind workload.OpKind
	ok   bool
	lat  time.Duration
	// wait is how long the op was ready before its worker took it.
	wait time.Duration
	// at is when the op started, from the start of its phase.
	at time.Duration
	// Search cost (QueryStats), searches only.
	bytes, rounds, elements int
}

// write is one acknowledged mutation, replayed by the correctness
// gate in the order its worker issued it.
type write struct {
	kind workload.OpKind
	doc  *corpus.Document
}

// worker is one closed-loop client: it issues its next op only after
// the previous one returned. Ops are partitioned by simulated user,
// so one user's ops stay ordered.
type worker struct {
	cl      *client.Client
	samples []sample
	log     []write
	// proofInvalid counts searches failing with ErrProofInvalid.
	proofInvalid int
	errs         []string
}

// job is an op handed to a worker, stamped when it became ready.
type job struct {
	op    workload.Op
	ready time.Time
}

// bench is one set-up system: offline artifacts, the cluster and the
// workers that drive it.
type bench struct {
	sys     *zerberr.System
	st      *stack
	workers []*worker
	rec     *recorder
}

// newClient builds a logged-in client over t holding every group key.
func newClient(ctx context.Context, sys *zerberr.System, t client.Transport, user string) (*client.Client, error) {
	cl, err := client.New(t, client.Config{
		Plan:  sys.Plan,
		Store: sys.Store,
		Codec: sys.Config().Codec,
		Keys:  sys.Keys,
	})
	if err != nil {
		return nil, err
	}
	if err := cl.Login(ctx, user); err != nil {
		return nil, fmt.Errorf("login: %w", err)
	}
	return cl, nil
}

// indexAll indexes docs through the clients, splitting the documents
// round-robin across them and running the clients concurrently.
func indexAll(ctx context.Context, clients []*client.Client, docs []*corpus.Document) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := i; j < len(docs); j += len(clients) {
				if err := cl.IndexDocument(ctx, docs[j], docs[j].Group); err != nil {
					errs[i] = fmt.Errorf("indexing doc %d: %w", docs[j].ID, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// phase is what one drive call measured.
type phase struct {
	samples []sample
	// issued counts ops handed to workers; the next phase resumes the
	// stream there.
	issued  uint64
	elapsed time.Duration
}

// drive runs ops through the workers until the deadline passes
// (zero: no deadline) or maxOps were issued (zero: no bound). Each op
// goes to worker User % len(workers) over an unbuffered channel: the
// dispatcher hands an op over as soon as its worker is free, and the
// time it waited for that is the op's queue wait.
func (b *bench) drive(ctx context.Context, ops iter.Seq[workload.Op], deadline time.Time, maxOps uint64, proved bool) phase {
	n := uint64(len(b.workers))
	chans := make([]chan job, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i, w := range b.workers {
		w.samples = w.samples[:0]
		chans[i] = make(chan job)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range chans[i] {
				at := time.Since(start)
				s := w.do(ctx, j, proved, b.rec)
				s.at = at
				w.samples = append(w.samples, s)
			}
		}()
	}
	var issued uint64
	for op := range ops {
		if maxOps > 0 && issued >= maxOps {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		chans[op.User%n] <- job{op: op, ready: time.Now()}
		issued++
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	p := phase{issued: issued, elapsed: time.Since(start)}
	for _, w := range b.workers {
		p.samples = append(p.samples, w.samples...)
	}
	return p
}

// do executes one op and records it from the caller's view.
func (w *worker) do(ctx context.Context, j job, proved bool, rec *recorder) sample {
	s := sample{kind: j.op.Kind, wait: time.Since(j.ready)}
	var sp active
	if rec.enabled() {
		ctx, sp = rec.beginOp(ctx, opSpanName[j.op.Kind])
	}
	t0 := time.Now()
	var err error
	switch j.op.Kind {
	case workload.OpSearch:
		var opts []client.SearchOption
		if proved {
			opts = append(opts, client.WithProof())
		}
		var st client.QueryStats
		_, st, err = w.cl.Search(ctx, j.op.Terms, topK, opts...)
		s.bytes, s.rounds, s.elements = st.Bytes, st.Rounds, st.Elements
		if errors.Is(err, client.ErrProofInvalid) {
			w.proofInvalid++
		}
	case workload.OpInsert:
		err = w.cl.IndexDocument(ctx, j.op.Doc, j.op.Doc.Group)
		if err == nil {
			w.log = append(w.log, write{kind: workload.OpInsert, doc: j.op.Doc})
		}
	case workload.OpRemove:
		var n int
		n, err = w.cl.DeleteDocument(ctx, j.op.Doc, j.op.Doc.Group)
		if err == nil && n != len(j.op.Doc.TF) {
			err = fmt.Errorf("delete of doc %d removed %d of %d elements", j.op.Doc.ID, n, len(j.op.Doc.TF))
		}
		if err == nil {
			w.log = append(w.log, write{kind: workload.OpRemove, doc: j.op.Doc})
		}
	}
	s.lat = time.Since(t0)
	rec.end(sp)
	s.ok = err == nil
	if err != nil && len(w.errs) < 4 {
		w.errs = append(w.errs, fmt.Sprintf("%s: %v", j.op.Kind, err))
	}
	return s
}

// mixStream is the workload's op stream from op start on.
func mixStream(sys *zerberr.System, sp spec, seed, start uint64) iter.Seq[workload.Op] {
	return workload.Stream(sys.Corpus, workload.StreamConfig{
		SearchFrac: sp.search,
		InsertFrac: sp.index,
		RemoveFrac: sp.delete,
		Users:      streamUsers,
		Start:      start,
	}, seed)
}

// probeOps draws n fresh documents for the probe phase: inserts from
// a seeded insert-only stream whose document IDs start at
// probeDocBase, and the matching deletes of the first nDel of them.
func probeOps(sys *zerberr.System, n, nDel int) (inserts, deletes []workload.Op) {
	for op := range workload.Stream(sys.Corpus, workload.StreamConfig{InsertFrac: 1, FirstDocID: probeDocBase}, corpusSeed) {
		if len(inserts) == n {
			break
		}
		inserts = append(inserts, op)
	}
	for _, op := range inserts[:nDel] {
		deletes = append(deletes, workload.Op{User: op.User, Kind: workload.OpRemove, Doc: op.Doc})
	}
	return inserts, deletes
}

// probeQueries is the gate's fixed probe set: the first n searches of
// a seeded search-only stream.
func probeQueries(sys *zerberr.System, seed uint64, n int) [][]corpus.TermID {
	var out [][]corpus.TermID
	for op := range workload.Stream(sys.Corpus, workload.StreamConfig{SearchFrac: 1}, seed^0x67617465) {
		if len(out) == n {
			break
		}
		out = append(out, op.Terms)
	}
	return out
}

// ofKind keeps the samples of one op kind.
func ofKind(samples []sample, kind workload.OpKind) []sample {
	return slices.DeleteFunc(slices.Clone(samples), func(s sample) bool { return s.kind != kind })
}
