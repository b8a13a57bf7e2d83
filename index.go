package gausstree

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/gauss-tree/gausstree/internal/core"
	"github.com/gauss-tree/gausstree/internal/fault"
	"github.com/gauss-tree/gausstree/internal/pagefile"
	"github.com/gauss-tree/gausstree/internal/shard"
	"github.com/gauss-tree/gausstree/internal/wal"
)

// index is the one implementation behind both public index types: n shards,
// each its own core tree (and, when durable, its own page file plus
// write-ahead log), queried through the shard engine's certified
// cross-shard merge. A Tree is an index with one shard in the single-file
// layout; a Sharded is an index with n shards in the directory layout.
// Every method defined here is promoted to both.
type index struct {
	mu   sync.Mutex // serializes mutations and Close; never held by reads
	st   atomic.Pointer[indexState]
	opts Options
	ing  *ingester // non-nil in merge-ingest mode (Options.Ingest)
}

// indexState bundles the fan-out engine with every shard's page manager and
// write-ahead log. It is published through an atomic pointer so that readers
// never take a lock: queries load the state, pin each shard's current root
// snapshot and run entirely against immutable pages, concurrently with any
// writer.
type indexState struct {
	eng  *shard.Engine
	mgrs []*pagefile.Manager
	wals []*wal.Log // per shard; nil entries for memory-backed shards
}

// shardErr attributes err to shard i when the index has more than one
// shard; a single-shard index reports its errors unprefixed.
func (st *indexState) shardErr(i int, err error) error {
	if err == nil || len(st.mgrs) == 1 {
		return err
	}
	return fmt.Errorf("shard %d: %w", i, err)
}

// layout is the on-disk layout of a durable index — the only thing in which
// a Tree and a Sharded differ on disk. The single-file layout (sharded
// false) keeps the one shard's page file at path and its write-ahead log at
// path+".wal". The directory layout keeps one page file and log per shard
// inside the directory path, plus a shards.json manifest naming the shard
// count and partition policy. An empty path is a memory-backed index.
type layout struct {
	path    string
	sharded bool
}

// shardedManifest is the tiny JSON descriptor of the directory layout:
// everything OpenSharded needs that the shard files themselves do not
// record.
type shardedManifest struct {
	Version   int
	Shards    int
	Partition string
}

const shardedManifestName = "shards.json"

// files returns the page-file and write-ahead-log paths of shard i.
func (l layout) files(i int) (page, log string) {
	if !l.sharded {
		return l.path, l.path + ".wal"
	}
	name := filepath.Join(l.path, fmt.Sprintf("shard-%04d", i))
	return name + ".gtree", name + ".wal"
}

// prepare readies the directory layout for a create. No manifest means no
// create ever completed there (the manifest is written last), so any shard
// files present are provably debris from a crashed or failed create; they
// are reclaimed, since their committed headers would otherwise make
// pagefile.CreateFile refuse the path forever. The single-file layout needs
// no preparation: a failed create removes its own files.
func (l layout) prepare() error {
	if !l.sharded {
		return nil
	}
	if _, err := os.Stat(filepath.Join(l.path, shardedManifestName)); err == nil {
		return fmt.Errorf("gausstree: %s already holds a sharded index (use OpenSharded)", l.path)
	}
	if err := os.MkdirAll(l.path, 0o755); err != nil {
		return err
	}
	for _, pattern := range []string{"shard-*.gtree", "shard-*.wal"} {
		debris, err := filepath.Glob(filepath.Join(l.path, pattern))
		if err != nil {
			return err
		}
		for _, f := range debris {
			if err := os.Remove(f); err != nil {
				return err
			}
		}
	}
	return nil
}

// commit completes a create of the directory layout by writing the
// manifest, atomically (temp file + rename): its presence implies every
// shard file was created and committed, so a crash mid-create leaves only
// reclaimable debris, never a torn index.
func (l layout) commit(shards int, partition PartitionPolicy) error {
	if !l.sharded {
		return nil
	}
	m, err := json.Marshal(shardedManifest{Version: 1, Shards: shards, Partition: partition.name()})
	if err != nil {
		return err
	}
	tmp := filepath.Join(l.path, shardedManifestName+".tmp")
	if err := os.WriteFile(tmp, m, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(l.path, shardedManifestName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// manifest returns the shard count and partition policy name of a
// persisted index: read from the manifest in the directory layout, always
// one hash-partitioned shard in the single-file layout.
func (l layout) manifest() (shards int, partition string, err error) {
	if !l.sharded {
		return 1, PartitionHashByID.name(), nil
	}
	raw, err := os.ReadFile(filepath.Join(l.path, shardedManifestName))
	if err != nil {
		return 0, "", fmt.Errorf("gausstree: %s holds no sharded index manifest: %w", l.path, err)
	}
	var m shardedManifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, "", fmt.Errorf("gausstree: corrupt sharded manifest: %w", err)
	}
	if m.Version != 1 {
		return 0, "", fmt.Errorf("gausstree: unsupported sharded manifest version %d", m.Version)
	}
	if m.Shards <= 0 {
		return 0, "", fmt.Errorf("gausstree: sharded manifest names %d shards", m.Shards)
	}
	return m.Shards, m.Partition, nil
}

// shardSet accumulates the per-shard storage stacks while an index is built
// or reopened, and releases them again if that fails.
type shardSet struct {
	trees   []*core.Tree
	mgrs    []*pagefile.Manager
	wals    []*wal.Log
	created []string // files this call created, removed on failure
}

func newShardSet(n int) *shardSet {
	return &shardSet{trees: make([]*core.Tree, n), mgrs: make([]*pagefile.Manager, n), wals: make([]*wal.Log, n)}
}

// release closes every opened log and manager and removes every file the
// call created, so a retry at the same path starts clean instead of
// tripping over a committed page file.
func (s *shardSet) release() {
	for _, l := range s.wals {
		if l != nil {
			l.Close()
		}
	}
	for _, m := range s.mgrs {
		if m != nil {
			m.Close()
		}
	}
	for _, f := range s.created {
		os.Remove(f)
	}
}

// manager stacks the optional fault layer and the buffer cache over one
// shard's backend. All shards share the one injector, so a schedule's
// counters and fault caps aggregate across the whole index; the cache
// budget is split evenly across shards.
func (s *shardSet) manager(i int, backend pagefile.Backend, pageSize int, o Options) error {
	backend = fault.WrapBackend(backend, o.Fault)
	mgr, err := pagefile.NewManager(backend, pageSize, pagefile.WithCacheBytes(o.CacheBytes/len(s.mgrs)), pagefile.WithCacheShards(o.CacheShards))
	if err != nil {
		backend.Close()
		return err
	}
	s.mgrs[i] = mgr
	return nil
}

// walOptions are the write-ahead-log settings every shard is opened with.
func walOptions(o Options) wal.Options {
	return wal.Options{Interval: o.CommitLatency, Fault: walFault(o.Fault)}
}

// create builds an empty index of n shards laid out by l. A failed create
// leaves no file behind, so it can be retried at the same path.
func (x *index) create(dim, n int, l layout, o Options) error {
	ing, err := newIngester(o.Ingest)
	if err != nil {
		return err
	}
	if l.path != "" {
		if err := l.prepare(); err != nil {
			return err
		}
	}
	s := newShardSet(n)
	eng, err := s.create(dim, l, o)
	if err != nil {
		s.release()
		return err
	}
	x.publish(s, eng, o, ing)
	return nil
}

func (s *shardSet) create(dim int, l layout, o Options) (*shard.Engine, error) {
	for i := range s.trees {
		page, log := l.files(i)
		var backend pagefile.Backend = pagefile.NewMemBackend(o.PageSize)
		if l.path != "" {
			fb, err := pagefile.CreateFile(page, o.PageSize)
			if err != nil {
				return nil, err
			}
			s.created = append(s.created, page)
			backend = fb
		}
		if err := s.manager(i, backend, o.PageSize, o); err != nil {
			return nil, err
		}
		tr, err := core.New(s.mgrs[i], dim, core.Config{Combiner: o.Combiner, LeafFormat: o.LeafFormat})
		if err != nil {
			return nil, err
		}
		s.trees[i] = tr
		if l.path != "" {
			lg, err := wal.Create(log, dim, walOptions(o))
			if err != nil {
				return nil, err
			}
			s.created = append(s.created, log)
			s.wals[i] = lg
			if err := tr.SetWAL(lg); err != nil {
				return nil, err
			}
		}
	}
	eng, err := s.engine(o.Partition.name(), 0)
	if err != nil {
		return nil, err
	}
	if l.path != "" {
		if err := l.commit(len(s.trees), o.Partition); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// open reattaches the index persisted in layout l. Recovery is crash-safe
// per shard: each shard's double-buffered meta page yields its last fully
// committed checkpoint, and its write-ahead-log tail is replayed on top (a
// torn final record is detected by checksum and discarded).
func (x *index) open(l layout, o Options) error {
	ing, err := newIngester(o.Ingest)
	if err != nil {
		return err
	}
	n, partition, err := l.manifest()
	if err != nil {
		return err
	}
	s := newShardSet(n)
	total, err := s.open(l, o)
	var eng *shard.Engine
	if err == nil {
		// Stateful partitioners (round-robin) resume their rotation from
		// the stored vector count.
		eng, err = s.engine(partition, uint64(total))
	}
	if err == nil && ing != nil {
		err = ing.seed(eng)
	}
	if err != nil {
		s.release()
		return err
	}
	x.publish(s, eng, o, ing)
	return nil
}

func (s *shardSet) open(l layout, o Options) (total int, err error) {
	for i := range s.trees {
		page, log := l.files(i)
		fb, err := pagefile.OpenFile(page)
		if err != nil {
			return 0, err
		}
		if err := s.manager(i, fb, fb.PageSize(), o); err != nil {
			return 0, err
		}
		tr, err := core.Open(s.mgrs[i])
		if err != nil {
			return 0, err
		}
		s.trees[i] = tr
		lg, tail, err := wal.Open(log, tr.Dim(), tr.AppliedLSN(), walOptions(o))
		if err != nil {
			return 0, err
		}
		s.wals[i] = lg
		if err := tr.ApplyWALTail(tail); err != nil {
			return 0, err
		}
		// SetWAL truncates the log: the replayed tail is now folded into
		// the committed meta record.
		if err := tr.SetWAL(lg); err != nil {
			return 0, err
		}
		total += tr.Len()
	}
	return total, nil
}

// engine assembles the shard engine over the built shards.
func (s *shardSet) engine(partition string, stored uint64) (*shard.Engine, error) {
	part, err := shard.ByName(partition, stored)
	if err != nil {
		return nil, err
	}
	return shard.New(s.trees, part)
}

// publish makes a freshly built or reopened index live.
func (x *index) publish(s *shardSet, eng *shard.Engine, o Options, ing *ingester) {
	x.opts, x.ing = o, ing
	x.st.Store(&indexState{eng: eng, mgrs: s.mgrs, wals: s.wals})
}

// optionsOf returns the optional Options argument with defaults filled in.
func optionsOf(opts []Options) Options {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	o.fillDefaults()
	return o
}

// state returns the live engine state or ErrClosed. It is the lock-free
// entry point of every read operation.
func (x *index) state() (*indexState, error) {
	st := x.st.Load()
	if st == nil {
		return nil, ErrClosed
	}
	return st, nil
}

// lockedState takes the writer lock and returns the live state; on
// ErrClosed the lock is already released again.
func (x *index) lockedState() (*indexState, error) {
	x.mu.Lock()
	st := x.st.Load()
	if st == nil {
		x.mu.Unlock()
		return nil, ErrClosed
	}
	return st, nil
}

// waitDurable awaits the group-commit fsync of the last mutation on every
// shard (instant for shards whose log is already flushed, and for
// memory-backed shards). It is called after releasing the writer lock so
// concurrent mutations can join the same group commits. A shard whose log
// died during the wait is poisoned right away under the writer lock. The
// core would poison it anyway on the next mutation (whose log append sees
// the sticky failure), but poisoning here makes the public contract
// uniform: every mutation after the first one that hits a storage fault
// fails wrapping ErrPoisoned, whether the fault surfaced at append time or
// only at the group fsync.
func (x *index) waitDurable(st *indexState) error {
	var errs []error
	var dead map[int]error
	for i := range st.mgrs {
		if err := st.eng.Tree(i).WaitDurable(); err != nil {
			errs = append(errs, st.shardErr(i, err))
			if errors.Is(err, wal.ErrFailed) {
				if dead == nil {
					dead = make(map[int]error)
				}
				dead[i] = err
			}
		}
	}
	if dead != nil {
		x.mu.Lock()
		for i, err := range dead {
			st.eng.Tree(i).Poison(err)
		}
		x.mu.Unlock()
	}
	return errors.Join(errs...)
}

// NumShards returns the number of shards: 1 for a Tree (0 after Close).
func (x *index) NumShards() int {
	st := x.st.Load()
	if st == nil {
		return 0
	}
	return st.eng.NumShards()
}

// Dim returns the feature dimensionality of the index (0 after Close).
func (x *index) Dim() int {
	st := x.st.Load()
	if st == nil {
		return 0
	}
	return st.eng.Dim()
}

// Len returns the number of stored vectors across all shards as of the
// current published snapshots (0 after Close).
func (x *index) Len() int {
	st := x.st.Load()
	if st == nil {
		return 0
	}
	return st.eng.Len()
}

// LeafFormat returns the leaf storage format the index writes (restored
// from the page files on Open and OpenSharded).
func (x *index) LeafFormat() LeafFormat {
	st := x.st.Load()
	if st == nil {
		return LeafExact
	}
	return st.eng.Tree(0).LeafFormat()
}

// sumShards adds f over the shards of the live index (0 after Close).
func (x *index) sumShards(f func(*core.Tree) uint64) uint64 {
	st := x.st.Load()
	if st == nil {
		return 0
	}
	var sum uint64
	for i := range st.mgrs {
		sum += f(st.eng.Tree(i))
	}
	return sum
}

// SnapshotEpoch returns the reclamation epoch of the currently published
// root snapshot, summed over shards. It advances by one per committed
// mutation; monitoring it (gaussd exposes it via /v1/stats) shows write
// progress without touching any lock.
func (x *index) SnapshotEpoch() uint64 {
	return x.sumShards((*core.Tree).SnapshotEpoch)
}

// PinnedReaders returns the number of outstanding snapshot-reader epoch
// pins summed over shards — queries (and unclosed cursors) currently
// blocking page reclamation. Exposed by gaussd as the
// gausstree_pinned_readers gauge.
func (x *index) PinnedReaders() int {
	return int(x.sumShards(func(t *core.Tree) uint64 { return uint64(t.Manager().PinnedReaders()) }))
}

// OldestPinnedEpoch returns the reclamation epoch of the longest-running
// pinned reader, or the current epoch when no reader is pinned, summed over
// shards like SnapshotEpoch. The gap SnapshotEpoch−OldestPinnedEpoch
// measures how far page reclamation lags behind publishing — a stuck or
// leaked cursor shows up as a growing gap.
func (x *index) OldestPinnedEpoch() uint64 {
	return x.sumShards(func(t *core.Tree) uint64 { return t.Manager().OldestPin() })
}

// LimboPages returns the number of freed pages awaiting epoch-safe
// reclamation, summed over shards.
func (x *index) LimboPages() int {
	return int(x.sumShards(func(t *core.Tree) uint64 { return uint64(t.Manager().LimboPages()) }))
}

// WALStats reports the write-ahead-log counters of a file-backed index,
// summed over shards: total fsyncs, total appended records, their ratio
// (the mean group-commit batch size — the central metric of the
// group-commit write path), and the highest appended and durable LSNs
// (the highest per-shard values, since LSN sequences are per shard; their
// gap is the group-commit window still awaiting fsync). ok is false for
// memory-backed or closed indexes.
func (x *index) WALStats() (WALStats, bool) {
	st := x.st.Load()
	if st == nil || st.wals[0] == nil {
		return WALStats{}, false
	}
	var sum wal.Stats
	for _, l := range st.wals {
		w := l.Stats()
		sum.Fsyncs += w.Fsyncs
		sum.Records += w.Records
		sum.AppendedLSN = max(sum.AppendedLSN, w.AppendedLSN)
		sum.DurableLSN = max(sum.DurableLSN, w.DurableLSN)
	}
	return WALStats{
		Fsyncs:        sum.Fsyncs,
		Records:       sum.Records,
		MeanGroupSize: sum.MeanGroupSize(),
		AppendedLSN:   sum.AppendedLSN,
		DurableLSN:    sum.DurableLSN,
	}, true
}

// WALStats are cumulative write-ahead-log counters; see Tree.WALStats.
type WALStats struct {
	// Fsyncs is the number of log fsyncs issued.
	Fsyncs uint64
	// Records is the number of logical records appended.
	Records uint64
	// MeanGroupSize is Records per fsync: how many mutations each
	// group commit amortized (0 before the first fsync).
	MeanGroupSize float64
	// AppendedLSN is the log sequence number of the last appended record;
	// AppendedLSN − DurableLSN is the durability lag of the group-commit
	// window.
	AppendedLSN uint64
	// DurableLSN is the highest log sequence number known fsynced.
	DurableLSN uint64
}

// Insert adds a probabilistic feature vector to the shard its partition
// policy selects. Duplicate ids are permitted (several observations of the
// same object may coexist); Delete removes one matching copy.
//
// Durability: on a file-backed index Insert returns once its record is
// fsynced in the write-ahead log — concurrent mutations share that fsync
// (group commit, see Options.CommitLatency) — and the tree pages
// themselves are checkpointed periodically, on Sync and on Close. On a
// memory-backed index in-memory commit is immediate. If a mutation fails
// mid-flight (an I/O error, not input validation), the affected shard
// refuses all further mutations to protect the committed state; Close the
// index and reattach it to recover every acknowledged mutation. This
// applies to Insert, InsertAll, BulkLoad and Delete alike.
//
// In merge-ingest mode (Options.Ingest) Insert may instead fold v into an
// existing near-duplicate stored Gaussian; see IngestOptions.
func (x *index) Insert(v Vector) error {
	//lint:ignore ctxflow Insert is the documented context-free compat API; InsertContext is the bounded form.
	return x.InsertContext(context.Background(), v)
}

// InsertContext is Insert with a context bounding the merge-ingest
// near-duplicate probe (Options.Ingest): when the context is cancelled
// before the probe finishes, the insert is abandoned with the context's
// error and the index is unchanged. Outside merge-ingest mode the context
// is not consulted — the mutation itself is not cancellable once started,
// because aborting a half-applied page write would corrupt the tree.
func (x *index) InsertContext(ctx context.Context, v Vector) error {
	st, err := x.lockedState()
	if err != nil {
		return err
	}
	if err := checkMutationVector(v, st.eng.Dim()); err != nil {
		x.mu.Unlock()
		return err
	}
	if x.ing != nil {
		err = x.ing.insert(ctx, st.eng, v)
	} else {
		err = st.eng.Insert(v)
	}
	x.mu.Unlock()
	if err != nil {
		return err
	}
	return x.waitDurable(st)
}

// InsertAll adds a batch of vectors, loading the per-shard groups
// concurrently, and returns how many of them are durably applied. On
// success that is len(vs) and the whole batch is durable. On error the
// batch may have been applied partially, and each shard applied a prefix
// of its own group. With one shard (every Tree) that makes the count the
// length of the prefix vs[:n] that is both applied and durable: a crash
// and reopen after InsertAll returns (n, err) recovers exactly vs[:n] of
// this batch, and the rest may be retried. With several shards the durable
// set is the union of the per-shard prefixes, not a prefix of vs, so
// retrying the whole batch may re-insert some vectors (duplicates are
// permitted and can be Deleted).
//
// InsertAll always inserts verbatim; merge-ingest mode (Options.Ingest)
// only affects Insert.
func (x *index) InsertAll(vs []Vector) (int, error) {
	st, err := x.lockedState()
	if err != nil {
		return 0, err
	}
	defer x.mu.Unlock()
	if err := checkMutationVectors(vs, st.eng.Dim()); err != nil {
		return 0, err
	}
	return st.eng.InsertAll(vs)
}

// BulkLoad builds the index from a vector set in one pass, partitioning it
// and bulk-loading all shards concurrently (every shard must be empty).
// Bulk-loaded trees have near-full pages and are both faster to build and
// faster to query than insertion-built ones. BulkLoad commits a full
// checkpoint per shard: it is durable on return without writing the WAL.
func (x *index) BulkLoad(vs []Vector) error {
	st, err := x.lockedState()
	if err != nil {
		return err
	}
	defer x.mu.Unlock()
	if err := checkMutationVectors(vs, st.eng.Dim()); err != nil {
		return err
	}
	if err := st.eng.BulkLoad(vs); err != nil {
		return err
	}
	if x.ing != nil {
		return x.ing.seed(st.eng)
	}
	return nil
}

// Delete removes one stored copy of the exact vector (id, means and sigmas
// must all match) and reports whether one was found. Hash-partitioned
// indexes probe one shard; round-robin probes all. Like Insert it is
// acknowledged once its WAL record is durable.
func (x *index) Delete(v Vector) (bool, error) {
	st, err := x.lockedState()
	if err != nil {
		return false, err
	}
	if err := checkMutationVector(v, st.eng.Dim()); err != nil {
		x.mu.Unlock()
		return false, err
	}
	found, err := st.eng.Delete(v)
	if found && err == nil && x.ing != nil {
		x.ing.forget(v.ID)
	}
	x.mu.Unlock()
	if !found || err != nil {
		return found, err
	}
	return true, x.waitDurable(st)
}

// KMostLikely answers a k-most-likely identification query (the paper's
// k-MLIQ, Definition 3): the k objects with the highest identification
// probability P(v|q), with probabilities certified to the configured
// accuracy by the merged cross-shard denominator interval. Results are
// ordered by descending probability. It is KMLIQContext without
// cancellation or statistics.
func (x *index) KMostLikely(q Vector, k int) ([]Match, error) {
	//lint:ignore ctxflow KMostLikely is the documented context-free compat API; the Context form is the bounded one.
	ms, _, err := x.KMLIQContext(context.Background(), q, k)
	return ms, err
}

// KMLIQContext is KMostLikely with cancellation and per-shard statistics:
// when ctx is cancelled the traversal stops promptly and returns ctx.Err()
// along with the statistics accumulated so far. Queries from any number of
// goroutines may run concurrently — and concurrently with writers: each
// query pins the per-shard snapshots published by the last committed
// mutations and never takes the writer lock.
func (x *index) KMLIQContext(ctx context.Context, q Vector, k int) ([]Match, ShardedQueryStats, error) {
	st, err := x.state()
	if err != nil {
		return nil, ShardedQueryStats{}, err
	}
	if err := errors.Join(checkQueryVector(q, st.eng.Dim()), checkK(k)); err != nil {
		return nil, ShardedQueryStats{}, err
	}
	res, qs, err := st.eng.KMLIQDetail(ctx, q, k, x.opts.Accuracy)
	return toMatches(res), qs, err
}

// KMostLikelyRanked answers a k-MLIQ without computing probability values
// (the paper's basic algorithm, §5.2.1). It touches the fewest pages, and
// needs no denominator merge because the global density order is the merge
// of the per-shard orders; the returned matches carry log densities and
// NaN probabilities. It is KMLIQRankedContext without cancellation or
// statistics.
func (x *index) KMostLikelyRanked(q Vector, k int) ([]Match, error) {
	//lint:ignore ctxflow KMostLikelyRanked is the documented context-free compat API; the Context form is the bounded one.
	ms, _, err := x.KMLIQRankedContext(context.Background(), q, k)
	return ms, err
}

// KMLIQRankedContext is KMostLikelyRanked with cancellation and per-shard
// statistics.
func (x *index) KMLIQRankedContext(ctx context.Context, q Vector, k int) ([]Match, ShardedQueryStats, error) {
	st, err := x.state()
	if err != nil {
		return nil, ShardedQueryStats{}, err
	}
	if err := errors.Join(checkQueryVector(q, st.eng.Dim()), checkK(k)); err != nil {
		return nil, ShardedQueryStats{}, err
	}
	res, qs, err := st.eng.KMLIQRankedDetail(ctx, q, k)
	return toMatches(res), qs, err
}

// Threshold answers a threshold identification query (the paper's TIQ,
// Definition 2): every object whose identification probability reaches
// pTheta, decided exactly via iterative cross-shard denominator refinement.
// Results are ordered by descending probability. It is TIQContext without
// cancellation or statistics.
func (x *index) Threshold(q Vector, pTheta float64) ([]Match, error) {
	//lint:ignore ctxflow Threshold is the documented context-free compat API; the Context form is the bounded one.
	ms, _, err := x.TIQContext(context.Background(), q, pTheta)
	return ms, err
}

// TIQContext is Threshold with cancellation and per-shard statistics.
func (x *index) TIQContext(ctx context.Context, q Vector, pTheta float64) ([]Match, ShardedQueryStats, error) {
	st, err := x.state()
	if err != nil {
		return nil, ShardedQueryStats{}, err
	}
	if err := errors.Join(checkQueryVector(q, st.eng.Dim()), checkPTheta(pTheta)); err != nil {
		return nil, ShardedQueryStats{}, err
	}
	res, qs, err := st.eng.TIQDetail(ctx, q, pTheta, x.opts.Accuracy)
	return toMatches(res), qs, err
}

// Stats reports the I/O counters of the page managers, summed over shards.
// Like every other operation it reports ErrClosed after Close.
func (x *index) Stats() (pagefile.Stats, error) {
	st, err := x.state()
	if err != nil {
		return pagefile.Stats{}, err
	}
	var sum pagefile.Stats
	for _, m := range st.mgrs {
		sum = sum.Add(m.Stats())
	}
	return sum, nil
}

// ResetStats zeroes the I/O counters of every shard. It reports ErrClosed
// after Close.
func (x *index) ResetStats() error {
	st, err := x.state()
	if err != nil {
		return err
	}
	for _, m := range st.mgrs {
		m.ResetStats()
	}
	return nil
}

// CheckInvariants verifies the structural invariants of every shard against
// its current published snapshot; intended for tests and debugging. It runs
// concurrently with writers without blocking them.
func (x *index) CheckInvariants() error {
	st, err := x.state()
	if err != nil {
		return err
	}
	for i := range st.mgrs {
		if err := st.eng.Tree(i).CheckInvariants(); err != nil {
			return st.shardErr(i, err)
		}
	}
	return nil
}

// ForEach visits every stored vector, shard by shard; each shard
// contributes one commit-consistent snapshot.
func (x *index) ForEach(fn func(Vector) error) error {
	st, err := x.state()
	if err != nil {
		return err
	}
	return st.eng.ForEach(fn)
}

// Sync is an explicit durability barrier: it checkpoints every shard's
// write-ahead log into its committed meta record (truncating the log) and
// flushes the page files. Mutations are already durable when they return —
// Sync only bounds the recovery replay work and frees log space.
func (x *index) Sync() error {
	st, err := x.lockedState()
	if err != nil {
		return err
	}
	defer x.mu.Unlock()
	var errs []error
	for i, m := range st.mgrs {
		err := st.eng.Tree(i).Checkpoint()
		if err == nil {
			err = m.Sync()
		}
		if err != nil {
			errs = append(errs, st.shardErr(i, err))
		}
	}
	return errors.Join(errs...)
}

// Quarantine makes the index permanently write-inert without closing it:
// every shard's engine is poisoned (mutations and checkpoints refuse
// wrapping ErrPoisoned, keeping any earlier poisoning cause) and its
// write-ahead log is failed, so neither can ever again write to or truncate
// the underlying files. Reads keep serving the last published snapshots.
//
// It exists for live recovery: before reopening the same files under a
// fresh index (which replays the WAL), the serving layer quarantines the
// old instance so the two can safely coexist until the old one is Closed.
// Quarantining a closed index is a no-op.
func (x *index) Quarantine(cause error) {
	st, err := x.lockedState()
	if err != nil {
		return
	}
	defer x.mu.Unlock()
	for i, l := range st.wals {
		st.eng.Tree(i).Poison(cause)
		if l != nil {
			l.Fail(cause)
		}
	}
}

// Close checkpoints every shard's write-ahead log, flushes the underlying
// storage to disk and releases it. The index is unusable afterwards; a
// file-backed index can be reattached with Open (Tree) or OpenSharded
// (Sharded). Queries still in flight when Close is called fail with a
// storage-closed error — drain readers first if that matters (gaussd does).
func (x *index) Close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	st := x.st.Swap(nil)
	if st == nil {
		return nil
	}
	var errs []error
	for i, l := range st.wals {
		if l != nil {
			// Fold the log tail into the meta record so the next open
			// skips replay. A checkpoint failure is not data loss — every
			// acknowledged mutation is already fsynced in the log and will
			// be replayed — so it does not fail Close.
			st.eng.Tree(i).Checkpoint()
			if err := l.Close(); err != nil {
				errs = append(errs, st.shardErr(i, err))
			}
		}
		if err := st.mgrs[i].Close(); err != nil {
			errs = append(errs, st.shardErr(i, err))
		}
	}
	return errors.Join(errs...)
}
