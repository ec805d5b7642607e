package cluster

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"zerberr/internal/client"
	"zerberr/internal/server"
	"zerberr/internal/store"
	"zerberr/internal/zerber"
)

// TestRouterOverDurableShards checks the Router works unchanged when
// every shard sits on a durable backend, and that a full cluster
// restart recovers identical query results from disk.
func TestRouterOverDurableShards(t *testing.T) {
	const shards = 3
	base := t.TempDir()
	secret := []byte("cluster-secret--")

	open := func() (*Router, []*server.Server) {
		srvs := make([]*server.Server, shards)
		transports := make([]client.Transport, shards)
		for i := range srvs {
			d, err := store.OpenDurable(filepath.Join(base, fmt.Sprintf("shard%d", i)), store.Options{})
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			srvs[i] = server.NewWithBackend(secret, time.Hour, d)
			srvs[i].RegisterUser("writer", 0)
			transports[i] = client.Local{S: srvs[i]}
		}
		router, err := NewRouter(transports...)
		if err != nil {
			t.Fatal(err)
		}
		return router, srvs
	}
	closeAll := func(srvs []*server.Server) {
		for i, s := range srvs {
			if err := s.Close(); err != nil {
				t.Fatalf("closing shard %d: %v", i, err)
			}
		}
	}

	router, srvs := open()
	toks, err := router.Login(context.Background(), "writer")
	if err != nil {
		t.Fatal(err)
	}
	// Spread elements over enough lists to hit every shard.
	const lists = 10
	for l := zerber.ListID(0); l < lists; l++ {
		for i := 0; i < 5; i++ {
			el := server.StoredElement{Sealed: []byte(fmt.Sprintf("l%d-e%d", l, i)), TRS: float64(i), Group: 0}
			if err := insertOne(context.Background(), router, toks[0], l, el); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := removeOne(context.Background(), router, toks[0], 2, []byte("l2-e0")); err != nil {
		t.Fatal(err)
	}
	before := make(map[zerber.ListID]server.QueryResponse)
	for l := zerber.ListID(0); l < lists; l++ {
		resp, err := queryOne(context.Background(), router, toks, l, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		before[l] = resp
	}
	closeAll(srvs)

	// Restart: fresh servers over the same shard directories.
	router, srvs = open()
	defer closeAll(srvs)
	toks, err = router.Login(context.Background(), "writer")
	if err != nil {
		t.Fatal(err)
	}
	for l := zerber.ListID(0); l < lists; l++ {
		resp, err := queryOne(context.Background(), router, toks, l, 0, 100)
		if err != nil {
			t.Fatalf("list %d after restart: %v", l, err)
		}
		if !reflect.DeepEqual(resp, before[l]) {
			t.Fatalf("list %d: results changed across restart", l)
		}
	}
}
