package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"zerberr/internal/cache"
	"zerberr/internal/client"
	"zerberr/internal/cluster"
	"zerberr/internal/obs"
	"zerberr/internal/replica"
	"zerberr/internal/server"
	"zerberr/internal/store"
)

// Cluster shape and cache sizes: zerberd's defaults for every member,
// the soak harness's router wiring.
const (
	numShards        = 2
	numReplicas      = 2
	serverCacheBytes = 64 << 20
	routerCacheBytes = 32 << 20
	benchUser        = "bench"
)

// member is one in-process index server, wired the way zerberd wires
// its defaults and served on a real loopback listener.
type member struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve returned
}

// stack is one booted cluster: 2 shards × 2 replicas behind a router.
type stack struct {
	dir     string
	members [][]*member // [shard][replica]
	sets    []*replica.Set
	router  *cluster.Router
	// transport is what clients talk to: the router, or in traced
	// mode the recording wrapper around it.
	transport client.Transport
	httpc     *http.Client
	pool      *http.Transport
}

// bootStack starts every member in its own data directory under dir
// and wires the router. rec, when non-nil, installs the tracing
// wrappers (backend, handler middleware, member and router
// transports); they record only while rec is switched on.
func bootStack(dir string, secret []byte, groups int, rec *recorder) (*stack, error) {
	// One pool for every member call, in both modes: the default
	// transport's settings with client.HTTP's default timeout. Traced
	// runs only add a header (spanHeaderRT).
	pool := http.DefaultTransport.(*http.Transport).Clone()
	st := &stack{
		dir:   dir,
		pool:  pool,
		httpc: &http.Client{Timeout: client.DefaultHTTPTimeout, Transport: spanHeaderRT{base: pool}},
	}
	allGroups := make([]int, groups)
	for g := range allGroups {
		allGroups[g] = g
	}
	mac := server.AdminMAC(secret)
	shards := make([]client.Transport, numShards)
	for s := range numShards {
		var row []*member
		var ts []client.Transport
		for r := range numReplicas {
			idx := s*numReplicas + r
			m, err := startMember(filepath.Join(dir, fmt.Sprintf("s%d-m%d", s, r)), secret, allGroups, idx, rec)
			if err != nil {
				st.members = append(st.members, row)
				st.close()
				return nil, err
			}
			row = append(row, m)
			h := client.HTTP{BaseURL: m.url, Client: st.httpc, Retry: client.DefaultRetryPolicy(), AdminMAC: mac}
			if rec != nil {
				ts = append(ts, &tracedMember{HTTP: h, rec: rec})
			} else {
				ts = append(ts, h)
			}
		}
		st.members = append(st.members, row)
		set, err := replica.NewSet(ts[0], ts[1:]...)
		if err != nil {
			st.close()
			return nil, err
		}
		st.sets = append(st.sets, set)
		shards[s] = set
	}
	// The sets go to the router unwrapped: NewRouter type-asserts
	// *replica.Set to seed hedge delays from shard latency.
	router, err := cluster.NewRouter(shards...)
	if err != nil {
		st.close()
		return nil, err
	}
	router.SetCache(cache.New(routerCacheBytes))
	st.router = router
	st.transport = router
	if rec != nil {
		st.transport = &tracedRouter{Transport: router, rec: rec}
	}
	return st, nil
}

// startMember opens a durable store in dir and serves it like zerberd
// with default flags: default commit window and snapshot cadence, an
// obs registry shared by store and server, a 64 MiB result cache, and
// the info-level logger (writing to a discard sink, so log formatting
// is paid but no terminal I/O).
func startMember(dir string, secret []byte, groups []int, idx int, rec *recorder) (*member, error) {
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	storeLog := logger.With("component", "store")
	reg := obs.NewRegistry()
	durable, err := store.OpenDurable(dir, store.Options{
		SnapshotEvery:     store.DefaultSnapshotEvery,
		GroupCommitWindow: store.DefaultCommitWindow,
		Logf:              func(format string, args ...any) { storeLog.Info(fmt.Sprintf(format, args...)) },
		Obs:               reg,
	})
	if err != nil {
		return nil, fmt.Errorf("opening member store: %w", err)
	}
	var backend store.Backend = durable
	if rec != nil {
		backend = &tracedBackend{Backend: durable, rec: rec, srv: idx}
	}
	srv := server.NewWithBackend(secret, time.Hour, backend)
	srv.SetLogger(logger)
	srv.SetObs(reg)
	srv.SetCache(cache.New(serverCacheBytes))
	srv.RegisterUser(benchUser, groups...)
	handler := srv.Handler()
	if rec != nil {
		handler = rec.middleware(idx, handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	m := &member{
		srv:  srv,
		http: &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(m.done)
		if err := m.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "stackbench: serve:", err)
		}
	}()
	return m, nil
}

// close stops every member, waits for their serve loops, closes their
// stores and removes the data directories.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, row := range st.members {
		for _, m := range row {
			if err := m.http.Shutdown(ctx); err != nil {
				_ = m.http.Close()
			}
			<-m.done
			if err := m.srv.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "stackbench: closing store:", err)
			}
		}
	}
	st.pool.CloseIdleConnections()
	if err := os.RemoveAll(st.dir); err != nil {
		fmt.Fprintln(os.Stderr, "stackbench: removing data:", err)
	}
}

// servers lists every member server, shard-major.
func (st *stack) servers() []*server.Server {
	var out []*server.Server
	for _, row := range st.members {
		for _, m := range row {
			out = append(out, m.srv)
		}
	}
	return out
}
