// Command stackbench is the repository's end-to-end benchmark. One
// process boots a 2-shard × 2-replica cluster in process — every
// member a durable store behind an index server on a real loopback
// HTTP listener, wired like zerberd with default flags — and drives
// it through the cluster router from closed-loop clients. See
// README.md for the workloads, the metrics and what each one should
// move.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	stackbench --workload search|churn|audit --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics in a
// plain run, the per-layer metrics in a traced one. A correctness-gate
// violation or a failed operation exits with status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	zerberr "zerberr"
	"zerberr/internal/client"
	"zerberr/internal/corpus"
)

// numSetups is how often a run sets the system up; setup_s is the
// median.
const numSetups = 3

// runLimit stops a run that hangs: the benchmark must finish within
// three minutes.
const runLimit = 170 * time.Second

// probeSearches is the size of the correctness gate's probe set.
const probeSearches = 64

// corpusSeed fixes the corpus and the offline phase: --seed varies
// the op stream, the probe documents and the gate's probe searches,
// so runs with different seeds differ in traffic, not in the index
// they serve.
const corpusSeed = 1

// secret signs the cluster's tokens and admin MACs.
var secret = []byte("stackbench token-signing secret!")

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	workdir  string
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var o options
	fs := flag.NewFlagSet("stackbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: search, churn or audit")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the corpus and the op stream")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced mode: per-layer metrics and spans")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "stackbench"), "directory for data directories and span dumps")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	sp, ok := specs[o.workload]
	if !ok || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "stackbench: want --workload search|churn|audit, --seconds > 0, --trace 0|1 (got %q, %d, %d)\n",
			o.workload, o.seconds, o.trace)
		return 2
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "stackbench: run exceeded %s\n", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, err := measure(context.Background(), o, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure sets the system up numSetups times, warms the last one up,
// runs the measured window(s) and the correctness gate.
func measure(ctx context.Context, o options, sp spec) (*result, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(o.workdir, "run-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	var rec *recorder
	if o.trace == 1 {
		rec = newRecorder()
	}

	var b *bench
	var setups []float64
	for i := 0; ; i++ {
		nb, d, err := setUp(ctx, root, rec)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		fmt.Fprintf(os.Stderr, "setup %d: %.3fs\n", i+1, d.Seconds())
		if i == numSetups-1 {
			b = nb
			break
		}
		nb.st.close()
		runtime.GC()
	}
	defer b.st.close()
	runtime.GC() // collect set-up garbage before anything is timed

	var phases []phase
	t0 := time.Now()
	warm := b.drive(ctx, mixStream(b.sys, sp, o.seed, 0), time.Time{}, sp.warmupOps, sp.proved)
	warmup := time.Since(t0)
	phases = append(phases, warm)
	next := warm.issued
	fmt.Fprintf(os.Stderr, "warm-up: %d ops in %.3fs\n", warm.issued, warmup.Seconds())

	var notes []string
	res := &result{}
	window := time.Duration(o.seconds) * time.Second
	if rec == nil {
		win := b.drive(ctx, mixStream(b.sys, sp, o.seed, next), time.Now().Add(window), 0, sp.proved)
		phases = append(phases, win)
		var idx, del []sample
		if sp.probeIndex > 0 || sp.probeDelete > 0 {
			t := time.Now()
			ins, dels := probeOps(b.sys, max(sp.probeIndex, sp.probeDelete), sp.probeDelete)
			pi := b.drive(ctx, slices.Values(ins), time.Time{}, 0, false)
			pd := b.drive(ctx, slices.Values(dels), time.Time{}, 0, false)
			phases = append(phases, pi, pd)
			idx, del = pi.samples, pd.samples
			fmt.Fprintf(os.Stderr, "probe: %d inserts, %d deletes in %.3fs\n", len(ins), len(dels), time.Since(t).Seconds())
		}
		res.Metrics = endToEnd(win, idx, del, median(setups), &notes)
	} else {
		// Half the window untraced, half traced, on the same system:
		// their difference is the tracing overhead.
		plain := b.drive(ctx, mixStream(b.sys, sp, o.seed, next), time.Now().Add(window/2), 0, sp.proved)
		next += plain.issued
		before := readCounters(b.st)
		rec.on.Store(true)
		traced := b.drive(ctx, mixStream(b.sys, sp, o.seed, next), time.Now().Add(window/2), 0, sp.proved)
		rec.on.Store(false)
		after := readCounters(b.st)
		phases = append(phases, plain, traced)
		notes = append(notes, fmt.Sprintf("plain half: %d ops in %.2fs; traced half: %d ops in %.2fs",
			len(plain.samples), plain.elapsed.Seconds(), len(traced.samples), traced.elapsed.Seconds()))
		spans := rec.recorded()
		res.Metrics = perLayer(rec, spans, b.st, before, after, traced, plain, warmup)
		path := filepath.Join(o.workdir, fmt.Sprintf("spans-%s.jsonl", o.workload))
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		notes = append(notes, fmt.Sprintf("%d spans written to %s", len(spans), path))
	}

	for _, p := range phases {
		res.Attempted += len(p.samples)
		res.Failed += len(p.samples) - succeeded(p.samples)
	}
	for _, w := range b.workers {
		for _, e := range w.errs {
			fmt.Fprintln(os.Stderr, "failed op:", e)
		}
	}
	t := time.Now()
	violations := b.gate(ctx, probeQueries(b.sys, o.seed, probeSearches))
	fmt.Fprintf(os.Stderr, "gate: %.3fs\n", time.Since(t).Seconds())
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "correctness violation:", v)
	}
	res.Correct = len(violations) == 0 && res.Failed == 0
	printSummary(res, notes)
	return res, nil
}

// setUp is the measured set-up: the offline phase (corpus generation
// and zerberr.Setup), the cluster boot, and the corpus bootstrap
// through Client.IndexDocument.
func setUp(ctx context.Context, root string, rec *recorder) (*bench, time.Duration, error) {
	start := time.Now()
	p := corpus.ProfileStudIP()
	p.NumDocs = corpusDocs
	c := corpus.Generate(p, corpusSeed)
	cfg := zerberr.DefaultConfig()
	cfg.Seed = corpusSeed
	cfg.SkipBaseline = true
	sys, err := zerberr.Setup(c, cfg)
	if err != nil {
		return nil, 0, err
	}
	offline := time.Since(start)
	dir, err := os.MkdirTemp(root, "cluster-*")
	if err != nil {
		return nil, 0, err
	}
	st, err := bootStack(dir, secret, c.Groups, rec)
	if err != nil {
		return nil, 0, err
	}
	booted := time.Since(start)
	b := &bench{sys: sys, st: st, rec: rec}
	clients := make([]*client.Client, runtime.NumCPU())
	for i := range clients {
		cl, err := newClient(ctx, sys, st.transport, benchUser)
		if err != nil {
			st.close()
			return nil, 0, err
		}
		clients[i] = cl
		b.workers = append(b.workers, &worker{cl: cl})
	}
	if err := indexAll(ctx, clients, c.Docs); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("bootstrap: %w", err)
	}
	d := time.Since(start)
	fmt.Fprintf(os.Stderr, "setup: offline %.3fs, boot %.3fs, bootstrap %.3fs\n",
		offline.Seconds(), (booted - offline).Seconds(), (d - booted).Seconds())
	return b, d, nil
}

func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

// printSummary writes the metrics, one per line with unit, and the
// notes to standard error.
func printSummary(res *result, notes []string) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "%-34s %12.4f %s\n", name, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, n)
	}
	fmt.Fprintf(os.Stderr, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}
