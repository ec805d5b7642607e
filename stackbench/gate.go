package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"zerberr/internal/client"
	"zerberr/internal/corpus"
	"zerberr/internal/workload"
)

// gate is the correctness check run after the measured phases, with
// the cluster quiesced. It returns every violation found.
//
// The acknowledged index and delete ops are replayed, in each
// worker's (hence each user's) order, into a reference: client.Local
// over the Memory-backed server zerberr.Setup built. A fixed probe
// set of strict top-k searches must then return the same documents
// with the same scores from the cluster and the reference. Strict
// mode makes the two comparable despite randomized GCM sealing.
func (b *bench) gate(ctx context.Context, probes [][]corpus.TermID) []string {
	var bad []string
	for _, w := range b.workers {
		if w.proofInvalid > 0 {
			bad = append(bad, fmt.Sprintf("%d searches failed proof verification", w.proofInvalid))
		}
	}
	for i, set := range b.st.sets {
		s := set.Stats()
		if s.RootMismatches > 0 || s.WriteFaults > 0 || s.Stale > 0 {
			bad = append(bad, fmt.Sprintf("shard %d: root mismatches %d, write faults %d, stale members %d",
				i, s.RootMismatches, s.WriteFaults, s.Stale))
		}
	}
	clusterElems := 0
	for i, row := range b.st.members {
		n := row[0].srv.NumElements()
		for r, m := range row[1:] {
			if got := m.srv.NumElements(); got != n {
				bad = append(bad, fmt.Sprintf("shard %d: replica %d holds %d elements, primary %d", i, r+1, got, n))
			}
		}
		clusterElems += n
	}

	refs := make([]*client.Client, len(b.workers))
	for i := range refs {
		cl, err := b.sys.NewClient(fmt.Sprintf("ref%d", i))
		if err != nil {
			return append(bad, fmt.Sprintf("reference client: %v", err))
		}
		refs[i] = cl
	}
	if err := indexAll(ctx, refs, b.sys.Corpus.Docs); err != nil {
		return append(bad, fmt.Sprintf("reference bootstrap: %v", err))
	}
	if err := b.replay(ctx, refs); err != nil {
		return append(bad, fmt.Sprintf("reference replay: %v", err))
	}
	if n := b.sys.Server.NumElements(); n != clusterElems {
		bad = append(bad, fmt.Sprintf("cluster holds %d elements, reference %d", clusterElems, n))
	}

	probe, err := newClient(ctx, b.sys, b.st.router, benchUser)
	if err != nil {
		return append(bad, fmt.Sprintf("probe client: %v", err))
	}
	for i, terms := range probes {
		got, _, err := probe.Search(ctx, terms, topK, client.WithStrictTopK())
		if err != nil {
			bad = append(bad, fmt.Sprintf("probe %d on cluster: %v", i, err))
			continue
		}
		want, _, err := refs[0].Search(ctx, terms, topK, client.WithStrictTopK())
		if err != nil {
			bad = append(bad, fmt.Sprintf("probe %d on reference: %v", i, err))
			continue
		}
		if len(got) != len(want) {
			bad = append(bad, fmt.Sprintf("probe %d: %d results, reference %d", i, len(got), len(want)))
			continue
		}
		for j := range got {
			if got[j].Doc != want[j].Doc || math.Abs(got[j].Score-want[j].Score) > 1e-9 {
				bad = append(bad, fmt.Sprintf("probe %d rank %d: doc %d score %g, reference doc %d score %g",
					i, j, got[j].Doc, got[j].Score, want[j].Doc, want[j].Score))
				break
			}
		}
	}
	return bad
}

// replay applies each worker's acknowledged writes to the reference,
// one reference client per worker log so per-user order holds.
func (b *bench) replay(ctx context.Context, refs []*client.Client) error {
	errs := make([]error, len(b.workers))
	var wg sync.WaitGroup
	for i, w := range b.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, op := range w.log {
				var err error
				if op.kind == workload.OpInsert {
					err = refs[i].IndexDocument(ctx, op.doc, op.doc.Group)
				} else {
					_, err = refs[i].DeleteDocument(ctx, op.doc, op.doc.Group)
				}
				if err != nil {
					errs[i] = fmt.Errorf("%s doc %d: %w", op.kind, op.doc.ID, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
