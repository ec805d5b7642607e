package soak

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/crypt"
	"zerberr/internal/obs"
	"zerberr/internal/server"
	"zerberr/internal/workload"
	"zerberr/internal/zerber"
)

// zerberdBin is the scratch zerberd every test in this package boots;
// TestMain builds it once.
var zerberdBin string

func TestMain(m *testing.M) {
	path, cleanup, err := BuildZerberd(context.Background(), "")
	if err != nil {
		fmt.Fprintf(os.Stderr, "building zerberd: %v\n", err)
		os.Exit(1)
	}
	zerberdBin = path
	code := m.Run()
	cleanup()
	os.Exit(code)
}

// startScratch boots one zerberd on a scratch data dir with one
// all-groups test user and returns the proc plus its transport.
func startScratch(t *testing.T, name string) (*Proc, client.HTTP) {
	t.Helper()
	dir := t.TempDir()
	secretFile, err := WriteSecret(dir)
	if err != nil {
		t.Fatal(err)
	}
	p, err := StartProc(ProcConfig{
		Binary:     zerberdBin,
		Name:       name,
		DataDir:    filepath.Join(dir, "data"),
		SecretFile: secretFile,
		TokenTTL:   time.Hour,
		Users:      []string{"tester=0,1"},
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.Alive() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			p.Stop(ctx)
		}
	})
	secret, err := Secret(secretFile)
	if err != nil {
		t.Fatal(err)
	}
	return p, client.HTTP{
		BaseURL:  p.BaseURL(),
		Retry:    client.DefaultRetryPolicy(),
		AdminMAC: server.AdminMAC(secret),
	}
}

// seedElements inserts n sealed elements into one list and returns
// the tokens plus the sealed payloads the server acknowledged.
func seedElements(t *testing.T, tr client.HTTP, list zerber.ListID, n int) ([]crypt.Token, [][]byte) {
	t.Helper()
	ctx := context.Background()
	toks, err := tr.Login(ctx, "tester")
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]server.InsertOp, n)
	sealed := make([][]byte, n)
	for i := range ops {
		sealed[i] = []byte(fmt.Sprintf("sealed-element-%03d", i))
		ops[i] = server.InsertOp{
			List:    list,
			Element: server.StoredElement{Sealed: sealed[i], TRS: float64(n-i) / float64(n), Group: toks[0].Group},
		}
	}
	if err := tr.InsertBatch(ctx, toks[0], ops); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	return toks, sealed
}

// requireServed asserts one member serves exactly the given sealed set
// on the list.
func requireServed(t *testing.T, tr client.HTTP, toks []crypt.Token, list zerber.ListID, sealed [][]byte) {
	t.Helper()
	served, err := pageList(context.Background(), tr, toks, list)
	if err != nil {
		t.Fatalf("pageList: %v", err)
	}
	if len(served) != len(sealed) {
		t.Fatalf("served %d elements, want %d", len(served), len(sealed))
	}
	for _, s := range sealed {
		if !served[string(s)] {
			t.Fatalf("acknowledged element %q lost", s)
		}
	}
}

func TestProcLifecycle(t *testing.T) {
	p, _ := startScratch(t, "lifecycle")
	if !p.Alive() {
		t.Fatal("freshly started proc not alive")
	}
	if p.Pid() == 0 {
		t.Fatal("alive proc has pid 0")
	}
	if err := p.Kill(); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if p.Alive() {
		t.Fatal("proc alive after SIGKILL")
	}
	if err := p.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if !p.Alive() {
		t.Fatal("proc not alive after restart")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if p.Alive() {
		t.Fatal("proc alive after graceful stop")
	}
}

// TestKillMidWALPreservesAckedWrites is the core restart-identity
// fault: SIGKILL immediately after acknowledged writes (no graceful
// snapshot), restart onto the same data dir, and require every
// acknowledged element back. Whatever the server promised before the
// kill must be recoverable from the WAL alone.
func TestKillMidWALPreservesAckedWrites(t *testing.T) {
	p, tr := startScratch(t, "killwal")
	const list = zerber.ListID(7)
	toks, sealed := seedElements(t, tr, list, 50)

	if err := p.Kill(); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if err := p.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	requireServed(t, tr, toks, list, sealed)
}

// TestGracefulStopPreservesAckedWrites is the same identity assertion
// over the clean path: SIGTERM (final snapshot) then restart.
func TestGracefulStopPreservesAckedWrites(t *testing.T) {
	p, tr := startScratch(t, "graceful")
	const list = zerber.ListID(3)
	toks, sealed := seedElements(t, tr, list, 50)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.Stop(ctx); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if err := p.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	requireServed(t, tr, toks, list, sealed)
}

// TestRepeatedKillRestartCycles hammers the kill/restart edge: each
// cycle adds writes, SIGKILLs, restarts, and requires the union of
// everything ever acknowledged.
func TestRepeatedKillRestartCycles(t *testing.T) {
	p, tr := startScratch(t, "cycles")
	const list = zerber.ListID(11)
	ctx := context.Background()
	toks, err := tr.Login(ctx, "tester")
	if err != nil {
		t.Fatal(err)
	}
	var all [][]byte
	for cycle := 0; cycle < 3; cycle++ {
		ops := make([]server.InsertOp, 20)
		for i := range ops {
			s := []byte(fmt.Sprintf("cycle-%d-element-%03d", cycle, i))
			all = append(all, s)
			ops[i] = server.InsertOp{
				List:    list,
				Element: server.StoredElement{Sealed: s, TRS: 0.5, Group: toks[0].Group},
			}
		}
		if err := tr.InsertBatch(ctx, toks[0], ops); err != nil {
			t.Fatalf("cycle %d: InsertBatch: %v", cycle, err)
		}
		if err := p.Kill(); err != nil {
			t.Fatalf("cycle %d: Kill: %v", cycle, err)
		}
		if err := p.Restart(); err != nil {
			t.Fatalf("cycle %d: Restart: %v", cycle, err)
		}
		requireServed(t, tr, toks, list, all)
	}
}

// TestOracleResolution covers the uncertainty protocol: ambiguous
// failures may resolve either way, acknowledged writes may not.
func TestOracleResolution(t *testing.T) {
	o := newOracle()
	const list = zerber.ListID(1)
	o.insertAcked(list, []byte("acked"))
	o.insertFailed(list, []byte("maybe"))

	// The server holding both is fine on any member.
	if vs := o.checkList(list, map[string]bool{"acked": true, "maybe": true}, "m0"); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
	// A replica missing the uncertain element is fine too.
	if vs := o.checkList(list, map[string]bool{"acked": true}, "m1"); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
	// Losing the acked element is a violation; serving a never-sent
	// element is a violation.
	if vs := o.checkList(list, map[string]bool{"maybe": true, "alien": true}, "m0"); len(vs) != 2 {
		t.Fatalf("want 2 violations, got %v", vs)
	}

	// Primary doesn't hold "maybe" -> confirmed rejected, dropped.
	o.resolveList(list, map[string]bool{"acked": true})
	present, uncertain := o.counts()
	if present != 1 || uncertain != 0 {
		t.Fatalf("counts = (%d,%d), want (1,0)", present, uncertain)
	}
	// An uncertain entry the primary DOES hold stays uncertain (a
	// replica that never saw the ambiguous write may lack it).
	o.insertFailed(list, []byte("maybe2"))
	o.resolveList(list, map[string]bool{"acked": true, "maybe2": true})
	if _, uncertain = o.counts(); uncertain != 1 {
		t.Fatalf("resolved entry the primary holds; want it kept uncertain")
	}

	// Ambiguous remove: present -> uncertainRemove; primary no longer
	// holding it confirms the remove applied.
	o.removeFailed(list, []byte("acked"))
	o.resolveList(list, map[string]bool{"maybe2": true})
	present, _ = o.counts()
	if present != 0 {
		t.Fatalf("confirmed remove left present = %d", present)
	}
}

// TestEpochCheckerFlagsRemintedVersion feeds the checker two different
// contents under one (list, version, window) and requires a violation
// — and none for honest re-serves.
func TestEpochCheckerFlagsRemintedVersion(t *testing.T) {
	c := newEpochChecker(nil)
	q := server.ListQuery{List: 5, Offset: 0, Count: 10}
	resp := server.QueryResponse{
		Version:  42,
		Elements: []server.StoredElement{{Sealed: []byte("a"), TRS: 0.9, Group: 0}},
	}
	c.observe(q, resp)
	c.observe(q, resp) // identical re-serve: fine
	if v := c.violations.Load(); v != 0 {
		t.Fatalf("honest re-serve flagged: %d violations", v)
	}
	forged := resp
	forged.Elements = []server.StoredElement{{Sealed: []byte("b"), TRS: 0.9, Group: 0}}
	c.observe(q, forged)
	if v := c.violations.Load(); v != 1 {
		t.Fatalf("reminted version not flagged: %d violations", v)
	}
	// Versionless and unchanged responses carry no epoch promise.
	c.observe(q, server.QueryResponse{Version: 0, Elements: forged.Elements})
	c.observe(q, server.QueryResponse{Version: 42, Unchanged: true})
	if v := c.violations.Load(); v != 1 {
		t.Fatalf("versionless/unchanged observation flagged: %d violations", v)
	}
}

// TestSoakSmoke is a bounded end-to-end run: tiny cluster, a few
// seconds of load, at least one forced fault, zero violations.
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak smoke boots a process cluster")
	}
	cfg := DefaultConfig()
	cfg.ZerberdPath = zerberdBin
	cfg.Dir = t.TempDir()
	cfg.Shards = 2
	cfg.Replicas = 2
	cfg.Workers = 2
	cfg.Duration = 8 * time.Second
	cfg.CorpusDocs = 80
	cfg.CorpusVocab = 1000
	cfg.FaultEvery = 2 * time.Second
	cfg.ProofEvery = 8
	cfg.Stream = workload.StreamConfig{Users: 10_000}
	cfg.Logf = t.Logf

	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("report: %s", rep.JSON())
	if rep.Ops == 0 || rep.Searches == 0 {
		t.Fatal("soak drove no load")
	}
	if rep.PrimaryKills+rep.ReplicaKills == 0 {
		t.Fatal("no kill was injected")
	}
	if rep.Restarts == 0 {
		t.Fatal("no restart happened")
	}
	if rep.IdentityChecks == 0 {
		t.Fatal("no identity check ran")
	}
	if rep.ProvedSearches == 0 {
		t.Fatal("no proved search ran")
	}
	if !rep.OK {
		t.Fatalf("soak not OK: %s", rep.JSON())
	}
}

// TestReportLatencyUnits feeds a known latency distribution through the
// run's recording path and checks the report reads it in milliseconds:
// a 15ms tail must come out as ~15, not clamp to the top bucket bound.
func TestReportLatencyUnits(t *testing.T) {
	r := &run{
		searchLat: obs.NewHistogram(nil),
		writeLat:  obs.NewHistogram(nil),
		orc:       newOracle(),
		ch:        &chaos{},
		checker:   newEpochChecker(nil),
	}
	// 97% at 2ms, 3% at 15ms: p50 sits in the (1ms, 2.5ms] bucket and
	// p99 in (10ms, 25ms].
	for i := 0; i < 1000; i++ {
		d := 2 * time.Millisecond
		if i%100 < 3 {
			d = 15 * time.Millisecond
		}
		observeLatency(r.searchLat, d)
		observeLatency(r.writeLat, d)
	}
	rep := r.report(time.Second)
	for _, c := range []struct {
		name       string
		got        float64
		want, wide float64 // wide: the containing bucket's width in ms
	}{
		{"search p50", rep.SearchP50Ms, 2, 1.5},
		{"search p99", rep.SearchP99Ms, 15, 15},
		{"write p50", rep.WriteP50Ms, 2, 1.5},
		{"write p99", rep.WriteP99Ms, 15, 15},
	} {
		if math.Abs(c.got-c.want) > c.wide {
			t.Errorf("%s = %.2fms, want %.0fms within one bucket (%.1fms)", c.name, c.got, c.want, c.wide)
		}
	}
	if rep.SearchP99Ms <= 10 {
		t.Errorf("search p99 = %.2fms: clamped at the 10ms bucket bound", rep.SearchP99Ms)
	}
}
