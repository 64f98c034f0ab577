package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"

	"rstore/internal/client"
	"rstore/internal/core"
	"rstore/internal/engine"
	"rstore/internal/engine/lsm"
	"rstore/internal/engine/remote"
	"rstore/internal/engine/remote/engined"
	"rstore/internal/kvstore"
	"rstore/internal/server"
)

// Cluster shape and store settings: rstore-node's lsm defaults per daemon
// (32 MiB block cache, 8 MiB row cache, 4 MiB memtable, fsync on every
// batch) and rstore-server's batch size and sub-chunk k.
const (
	numDaemons        = 3
	replicationFactor = 3
	onlineBatch       = 16
	subChunkK         = 1
)

type daemon struct {
	be  *lsm.Backend
	srv *engined.Server
}

// cluster is one running system: three engined daemons over loopback TCP,
// a kvstore cluster at rf=3 over them, a core store, and an httptest
// server over server.New(store) with a client pointed at it.
type cluster struct {
	daemons []*daemon
	kv      *kvstore.Store
	store   *core.Store
	ts      *httptest.Server
	httpTr  *http.Transport
	client  *client.Client

	// Traced clusters only: the recorder the decorators and middleware
	// report to, and the engine-side decorators, whose written counters
	// give engine write amplification its denominator.
	rec     *recorder
	engines []*tracedBackend
}

// openCluster starts the system in dir and bulk-loads ds into it. With a
// recorder, the node and engine decorators and the handler middleware are
// installed; recording itself stays off until the recorder is switched on.
// The traced cluster reaches its daemons through kvstore.Config.NewBackend,
// so kvstore sees in-process backends: the path is the same except that
// single-key reads (the online flush's chunk reads) query replicas one after
// another instead of concurrently.
func openCluster(ctx context.Context, dir string, ds *dataset, rec *recorder) (cl *cluster, err error) {
	cl = &cluster{rec: rec}
	defer func() {
		if err != nil {
			cl.close()
			cl = nil
		}
	}()
	addrs := make([]string, numDaemons)
	for i := range addrs {
		be, err := lsm.Open(filepath.Join(dir, fmt.Sprintf("node-%d", i)), lsm.Options{})
		if err != nil {
			return cl, err
		}
		var served engine.Backend = be
		if rec != nil {
			tb := &tracedBackend{inner: be, rec: rec, where: bEngine}
			cl.engines = append(cl.engines, tb)
			served = tb
		}
		srv, err := engined.Start("127.0.0.1:0", served)
		if err != nil {
			be.Close()
			return cl, err
		}
		cl.daemons = append(cl.daemons, &daemon{be: be, srv: srv})
		addrs[i] = srv.Addr().String()
	}

	cfg := kvstore.Config{
		Nodes:             numDaemons,
		ReplicationFactor: replicationFactor,
		Cost:              kvstore.DefaultCostModel(),
		Engine:            kvstore.EngineRemote,
		NodeAddrs:         addrs,
	}
	if rec != nil {
		cfg.NewBackend = func(id int) (engine.Backend, error) {
			c, err := remote.Dial(addrs[id], remote.Options{})
			if err != nil {
				return nil, err
			}
			return &tracedBackend{inner: c, rec: rec, where: bNode}, nil
		}
	}
	if cl.kv, err = kvstore.Open(ctx, cfg); err != nil {
		return cl, err
	}
	cl.store, err = core.Open(ctx, core.Config{
		KV:            cl.kv,
		ChunkCapacity: chunkCapacity,
		BatchSize:     onlineBatch,
		SubChunkK:     subChunkK,
	})
	if err != nil {
		return cl, err
	}
	var h http.Handler = server.New(cl.store)
	cl.httpTr = &http.Transport{MaxIdleConnsPerHost: 8}
	var rt http.RoundTripper = cl.httpTr
	if rec != nil {
		h = rec.middleware(h)
		rt = reqTransport{base: cl.httpTr}
	}
	cl.ts = httptest.NewServer(h)
	cl.client = client.New(cl.ts.URL, &http.Client{Transport: rt})
	if err := cl.store.BulkLoad(ctx, ds.c); err != nil {
		return cl, fmt.Errorf("bulk load: %w", err)
	}
	return cl, nil
}

// engineWritten sums the bytes handed to the engines' Put and BatchPut.
func (cl *cluster) engineWritten() int64 {
	var n int64
	for _, tb := range cl.engines {
		n += tb.written.Load()
	}
	return n
}

// close stops everything openCluster started, outermost first, and waits
// for it: the HTTP server (and its in-flight handlers), the store (which
// flushes pending versions), the cluster's wire clients, then each daemon
// and its backend.
func (cl *cluster) close() error {
	var errs []error
	if cl.ts != nil {
		cl.ts.Close()
	}
	if cl.httpTr != nil {
		cl.httpTr.CloseIdleConnections()
	}
	if cl.store != nil {
		errs = append(errs, cl.store.Close())
	}
	if cl.kv != nil {
		errs = append(errs, cl.kv.Close())
	}
	for _, d := range cl.daemons {
		errs = append(errs, d.srv.Close(), d.be.Close())
	}
	return errors.Join(errs...)
}
