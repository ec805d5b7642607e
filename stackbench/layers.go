package main

import (
	"slices"
	"strings"
	"time"

	"zerberr/internal/cache"
	"zerberr/internal/workload"
)

// counters are the program's own counters read at a window's edges;
// per-layer ratios use their difference.
type counters struct {
	router                      cache.Stats
	server                      cache.Stats // summed over members
	hedges, hedgeWins, failover uint64
}

func readCounters(st *stack) counters {
	var c counters
	c.router, _ = st.router.CacheStats()
	for _, srv := range st.servers() {
		s, _ := srv.CacheStats()
		c.server.Hits += s.Hits
		c.server.Misses += s.Misses
		c.server.Evictions += s.Evictions
	}
	for _, set := range st.sets {
		s := set.Stats()
		c.hedges += s.Hedges
		c.hedgeWins += s.HedgeWins
		c.failover += s.Failovers
	}
	return c
}

// spanIndex groups the recorded spans for self-time arithmetic.
type spanIndex struct {
	byName   map[string][]span
	children map[uint64][]span
	// store holds each member's store spans sorted by start, and
	// storeMax the longest of them (bounds the overlap search).
	store    map[int][]span
	storeMax map[int]int64
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{
		byName:   make(map[string][]span),
		children: make(map[uint64][]span),
		store:    make(map[int][]span),
		storeMax: make(map[int]int64),
	}
	for _, sp := range spans {
		ix.byName[sp.name] = append(ix.byName[sp.name], sp)
		if sp.parent != 0 {
			ix.children[sp.parent] = append(ix.children[sp.parent], sp)
		}
		if strings.HasPrefix(sp.name, "store.") {
			ix.store[sp.srv] = append(ix.store[sp.srv], sp)
			ix.storeMax[sp.srv] = max(ix.storeMax[sp.srv], sp.end-sp.start)
		}
	}
	for _, list := range ix.store {
		slices.SortFunc(list, func(a, b span) int { return int(a.start - b.start) })
	}
	return ix
}

// covered is how much of sp's interval the given spans cover: the
// length of the union of their intervals clipped to sp. Overlapping
// children (hedged member calls) count once.
func covered(sp span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := max(k.start, sp.start), min(k.end, sp.end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total, curS, curE int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curS, curE, open = v[0], v[1], true
		case v[0] <= curE:
			curE = max(curE, v[1])
		default:
			total += curE - curS
			curS, curE = v[0], v[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// storeOverlap lists member srv's store spans overlapping sp.
func (ix *spanIndex) storeOverlap(sp span) []span {
	list := ix.store[sp.srv]
	from := sp.start - ix.storeMax[sp.srv]
	i, _ := slices.BinarySearchFunc(list, from, func(s span, t int64) int { return int(s.start - t) })
	var out []span
	for ; i < len(list) && list[i].start < sp.end; i++ {
		if list[i].end > sp.start {
			out = append(out, list[i])
		}
	}
	return out
}

func micros(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }

// p50us is the median duration of the named spans, in µs.
func (ix *spanIndex) p50us(name string) float64 {
	return ix.p50self(name, func(span) int64 { return 0 })
}

// p50self is the median of (duration − sub(span)) over the named
// spans, in µs.
func (ix *spanIndex) p50self(name string, sub func(span) int64) float64 {
	spans := ix.byName[name]
	xs := make([]float64, len(spans))
	for i, sp := range spans {
		xs[i] = micros(sp.end - sp.start - sub(sp))
	}
	return quantile(xs, 0.5)
}

// childSelf subtracts the union of the span's children.
func (ix *spanIndex) childSelf(sp span) int64 { return covered(sp, ix.children[sp.id]) }

// perLayer computes the traced window's per-layer metrics. plain is
// the untraced window of the same run, for the tracing overhead.
func perLayer(rec *recorder, spans []span, st *stack, before, after counters, traced, plain phase, warmup time.Duration) map[string]metric {
	ix := indexSpans(spans)
	searches := ofKind(traced.samples, workload.OpSearch)
	nSearch := float64(len(searches))
	memberQ := float64(rec.memberQueries.Load())
	dHedges := float64(after.hedges - before.hedges)
	reads := memberQ - dHedges - float64(after.failover-before.failover)

	var live int
	for _, srv := range st.servers() {
		live += srv.NumElements()
	}
	var waits []float64
	for _, s := range traced.samples {
		waits = append(waits, float64(s.wait)/float64(time.Microsecond))
	}
	plainOps := float64(succeeded(plain.samples)) / plain.elapsed.Seconds()
	tracedOps := float64(succeeded(traced.samples)) / traced.elapsed.Seconds()
	plainP50 := quantile(values(ofKind(plain.samples, workload.OpSearch), latencyMS), 0.5)
	tracedP50 := quantile(values(searches, latencyMS), 0.5)

	storeCalls := len(ix.byName[spanStoreQuery]) + len(ix.byName[spanStoreProved])
	return map[string]metric{
		"client.search_self_us":      {ix.p50self(spanClientSearch, ix.childSelf), "us"},
		"client.index_self_us":       {ix.p50self(spanClientIndex, ix.childSelf), "us"},
		"client.delete_self_us":      {ix.p50self(spanClientDelete, ix.childSelf), "us"},
		"client.http_query_us":       {ix.p50us(spanMemberQuery), "us"},
		"client.http_insert_us":      {ix.p50us(spanMemberInsert), "us"},
		"client.wire_query_us":       {ix.p50self(spanMemberQuery, ix.childSelf), "us"},
		"client.wire_kb_per_query":   {ratio(float64(rec.wireBytes.Load())/1024, memberQ), "KiB"},
		"client.elements_per_search": {mean(values(searches, func(s sample) float64 { return float64(s.elements) })), "count"},

		"cluster.query_us":        {ix.p50us(spanClusterQuery), "us"},
		"cluster.insert_us":       {ix.p50us(spanClusterInsert), "us"},
		"cluster.remove_us":       {ix.p50us(spanClusterRemove), "us"},
		"cluster.cache_hit_ratio": {hitRatio(before.router, after.router), "ratio"},

		"replica.hedges_per_1k_reads":    {1000 * ratio(dHedges, reads), "count"},
		"replica.hedge_win_ratio":        {ratio(float64(after.hedgeWins-before.hedgeWins), dHedges), "ratio"},
		"replica.member_calls_per_query": {ratio(memberQ, float64(len(ix.byName[spanClusterQuery]))), "count"},

		"server.query_us": {ix.p50us(spanServerQuery), "us"},
		"server.query_self_us": {ix.p50self(spanServerQuery, func(sp span) int64 {
			return covered(sp, ix.storeOverlap(sp))
		}), "us"},
		"server.insert_us":       {ix.p50us(spanServerInsert), "us"},
		"server.remove_us":       {ix.p50us(spanServerRemove), "us"},
		"server.unchanged_ratio": {ratio(float64(rec.unchanged.Load()), float64(rec.subQueries.Load())), "ratio"},
		"server.canceled_500":    {float64(rec.canceled500.Load()), "count"},

		"cache.server_hit_ratio": {hitRatio(before.server, after.server), "ratio"},
		"cache.server_evictions": {float64(after.server.Evictions - before.server.Evictions), "count"},

		"store.query_us":               {ix.p50us(spanStoreQuery), "us"},
		"store.queries_per_search":     {ratio(float64(storeCalls), nSearch), "count"},
		"store.proved_us":              {ix.p50us(spanStoreProved), "us"},
		"store.insert_batch_us":        {ix.p50us(spanStoreInsert), "us"},
		"store.remove_us":              {ix.p50us(spanStoreRemove), "us"},
		"store.view_us":                {ix.p50us(spanStoreView), "us"},
		"store.disk_bytes_per_element": {ratio(float64(diskBytes(st.dir)), float64(live)), "B"},

		"proof.windows_per_search": {ratio(float64(rec.provedSub.Load()), nSearch), "count"},

		"workload.queue_wait_us": {mean(waits), "us"},
		"workload.warmup_s":      {warmup.Seconds(), "s"},
		"workload.error_rate":    {ratio(float64(len(traced.samples)-succeeded(traced.samples)), float64(len(traced.samples))), "ratio"},

		"tracing.ops_overhead_pct":        {100 * ratio(plainOps-tracedOps, plainOps), "%"},
		"tracing.search_p50_overhead_pct": {100 * ratio(tracedP50-plainP50, plainP50), "%"},
	}
}

func hitRatio(before, after cache.Stats) float64 {
	hits := float64(after.Hits - before.Hits)
	return ratio(hits, hits+float64(after.Misses-before.Misses))
}
