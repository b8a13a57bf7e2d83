package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/gauss-tree/gausstree"
	"github.com/gauss-tree/gausstree/client"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/server"
)

// workload describes how one workload reaches the index.
type workload struct {
	shards  int  // 0: a single-file Tree; otherwise a sharded directory index
	served  bool // requests go through gaussd over loopback HTTP
	writer  bool // a closed-loop insert caller runs during the window
	cold    bool // the index is reopened with a small buffer cache
	checked bool // read answers are compared with the exact ones
}

var workloads = map[string]workload{
	"serve-hot":      {served: true, checked: true},
	"embedded-cold":  {cold: true, checked: true},
	"ingest-sharded": {shards: 4, served: true, writer: true},
}

// rig is one open index of a run, with its loopback gaussd when the run
// serves it.
type rig struct {
	w     workload
	cache int    // buffer cache bytes the index is opened with (0: default)
	path  string // index file, or directory of a sharded index
	tree  *gausstree.Tree
	sh    *gausstree.Sharded
	srv   *server.Server
	done  chan error // Serve's return value
	cl    *client.Client
}

// buildRig bulk-loads the data set into a new index at path and closes it;
// open attaches it the way the workload uses it.
func buildRig(w workload, cache int, path string, vs []gausstree.Vector, dim int) (*rig, error) {
	r := &rig{w: w, cache: cache, path: path}
	if w.shards == 0 {
		t, err := gausstree.New(dim, gausstree.Options{Path: path})
		if err != nil {
			return nil, err
		}
		if err := t.BulkLoad(vs); err != nil {
			return nil, errors.Join(err, t.Close())
		}
		if err := t.Close(); err != nil {
			return nil, err
		}
	} else {
		s, err := gausstree.NewSharded(dim, w.shards, gausstree.Options{Path: path})
		if err != nil {
			return nil, err
		}
		if err := s.BulkLoad(vs); err != nil {
			return nil, errors.Join(err, s.Close())
		}
		if err := s.Close(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// open attaches the index at r.path.
func (r *rig) open() error {
	opts := gausstree.Options{CacheBytes: r.cache}
	var err error
	if r.w.shards == 0 {
		r.tree, err = gausstree.Open(r.path, opts)
	} else {
		r.sh, err = gausstree.OpenSharded(r.path, opts)
	}
	return err
}

// serve starts gaussd over the index on a 127.0.0.1 listener and a client
// for it. The client never retries, so a refused request counts as failed.
func (r *rig) serve() error {
	idx := server.TreeIndex(r.tree)
	if r.sh != nil {
		idx = server.ShardedIndex(r.sh)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.srv = server.New(idx, server.Config{})
	r.done = make(chan error, 1)
	go func() { r.done <- r.srv.Serve(l) }()
	r.cl, err = client.New(l.Addr().String(), client.Options{MaxRetries: -1})
	return err
}

// query runs one pool request through gaussd (viaClient) or the facade.
func (r *rig) query(ctx context.Context, req request, viaClient bool) ([]gausstree.Match, gausstree.QueryStats, error) {
	if viaClient {
		if req.tiq {
			return r.cl.TIQ(ctx, req.q, pTheta)
		}
		return r.cl.KMLIQ(ctx, req.q, k)
	}
	if r.sh != nil {
		ms, st, err := r.shardedQuery(ctx, req)
		return ms, st.Stats, err
	}
	if req.tiq {
		return r.tree.TIQContext(ctx, req.q, pTheta)
	}
	return r.tree.KMLIQContext(ctx, req.q, k)
}

// shardedQuery runs one request on the sharded facade, keeping the
// coordinator's statistics.
func (r *rig) shardedQuery(ctx context.Context, req request) ([]gausstree.Match, gausstree.ShardedQueryStats, error) {
	if req.tiq {
		return r.sh.TIQContext(ctx, req.q, pTheta)
	}
	return r.sh.KMLIQContext(ctx, req.q, k)
}

// insert adds vs through gaussd or the facade and returns the durably
// acknowledged prefix.
func (r *rig) insert(ctx context.Context, vs []gausstree.Vector, viaClient bool) ([]gausstree.Vector, error) {
	var n int
	var err error
	switch {
	case viaClient:
		n, err = r.cl.Insert(ctx, vs)
	case r.sh != nil:
		n, err = r.sh.InsertAll(vs)
	default:
		n, err = r.tree.InsertAll(vs)
	}
	return vs[:max(n, 0)], err
}

func (r *rig) ioStats() (pagefile.Stats, error) {
	if r.sh != nil {
		return r.sh.Stats()
	}
	return r.tree.Stats()
}

func (r *rig) walStats() gausstree.WALStats {
	var ws gausstree.WALStats
	if r.sh != nil {
		ws, _ = r.sh.WALStats()
	} else {
		ws, _ = r.tree.WALStats()
	}
	return ws
}

func (r *rig) limboPages() int {
	if r.sh != nil {
		return r.sh.LimboPages()
	}
	return r.tree.LimboPages()
}

func (r *rig) snapshotEpoch() uint64 {
	if r.sh != nil {
		return r.sh.SnapshotEpoch()
	}
	return r.tree.SnapshotEpoch()
}

func (r *rig) len() int {
	if r.sh != nil {
		return r.sh.Len()
	}
	return r.tree.Len()
}

// close stops gaussd (which closes the index) or closes the index directly,
// and waits until the server's goroutine has returned.
func (r *rig) close() error {
	if r.srv == nil {
		if r.sh != nil {
			return r.sh.Close()
		}
		return r.tree.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	r.cl.Close()
	return err
}

// diskBytes sums the sizes of the index's files.
func diskBytes(path string) (int64, error) {
	var total int64
	err := filepath.WalkDir(path, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if w := path + ".wal"; err == nil {
		if info, serr := os.Stat(w); serr == nil {
			total += info.Size()
		}
	}
	return total, err
}

// checkDurable reopens the closed index and reports how many acknowledged
// vectors it lacks; the error reports a failed reopen or invariant check.
func checkDurable(w workload, path string, acked []gausstree.Vector) (missing int, err error) {
	r := &rig{w: w, path: path}
	if err := r.open(); err != nil {
		return len(acked), fmt.Errorf("reopening for the durability check: %w", err)
	}
	want := make(map[uint64]bool, len(acked))
	for _, v := range acked {
		want[v.ID] = true
	}
	each := func(v gausstree.Vector) error {
		delete(want, v.ID)
		return nil
	}
	var inv error
	if r.sh != nil {
		err, inv = r.sh.ForEach(each), r.sh.CheckInvariants()
	} else {
		err, inv = r.tree.ForEach(each), r.tree.CheckInvariants()
	}
	if inv != nil {
		err = errors.Join(err, fmt.Errorf("invariants after reopen: %w", inv))
	}
	return len(want), errors.Join(err, r.close())
}
