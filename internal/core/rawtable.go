package core

import (
	"bytes"
	"fmt"
	"io"
	"sync"

	"nodb/internal/rawfile"
	"nodb/internal/schema"
	"nodb/internal/stats"
	"nodb/internal/value"
	"nodb/internal/watch"
)

// DefaultAutoPartitionBytes is the partition size the catalog applies to
// single files large enough to benefit from byte-range partitioning when
// the user did not set partition_bytes explicitly.
const DefaultAutoPartitionBytes int64 = 256 << 20

// Scanner is the operator-facing scan contract: the subset of *Scan the
// engine drives, implemented by both single-segment and multi-segment scans.
type Scanner interface {
	Next() ([]value.Value, bool, error)
	NextBatch() (*Batch, bool, error)
	Close() error
	// PushAgg installs worker-side partial aggregation on a scan that has
	// not started; DrainAgg then drives it to EOF and returns the merged
	// groups in first-seen row order.
	PushAgg(spec *AggPushdown) bool
	DrainAgg() ([]*PartialGroup, error)
}

// ScanOpener is anything a scan can be opened on: a *RawTable, or one of
// its segments on its own, which tests use to drive a bare segment.
type ScanOpener interface {
	OpenScan(spec ScanSpec) (Scanner, error)
}

var (
	_ ScanOpener = (*RawTable)(nil)
	_ ScanOpener = (*Table)(nil)
	_ Scanner    = (*Scan)(nil)
	_ Scanner    = (*ShardedScan)(nil)
)

// OpenScan opens a scan of the segment alone (NewScan keeps its concrete
// return type for package-internal callers and existing tests).
func (t *Table) OpenScan(spec ScanSpec) (Scanner, error) { return t.NewScan(spec) }

// RawTable is a registered raw table: table-level options over an ordered
// list of segments. A segment is a *Table covering one whole file or one
// byte range of a file, with its own reader, positional map, binary cache,
// statistics and chunk metadata, so segments warm, refresh and evict
// independently while scans concatenate their outputs in segment order.
// Querying a raw table yields byte-identical rows, counters and per-segment
// structure contents to querying the segments' concatenated bytes as one
// file (chunk decompositions align when every segment but the last holds a
// multiple of ChunkRows rows).
//
// Registration reads no data. A table over whole files has its segments
// from the start; a partitioned table (partBytes > 0) finds its byte-range
// boundaries on first use, by probing a small window around each nominal
// offset i*partBytes for the next row terminator, so every bound falls on a
// row boundary. The boundaries then hold until the file is rewritten:
// appends extend the last, unbounded segment, and a rewrite drops the
// segments so the next use finds them again.
type RawTable struct {
	sch       *schema.Schema
	file      string // partitioned tables: the file the byte ranges split
	partBytes int64  // > 0: segments are byte ranges of file, found lazily

	mu       sync.Mutex
	opts     Options  // table-level; budgets are totals before the per-segment split
	segs     []*Table // nil while a partitioned table's boundaries are unknown
	fallback *stats.Collector
}

// NewRawTable registers a raw table over paths, which must be non-empty
// and ordered (scan output follows this order); location is the registered
// name of the files, for messages. With partBytes > 0 the single path is
// split into byte ranges of roughly partBytes bytes each (rounded forward
// to row boundaries); otherwise every path is one whole-file segment. The
// files must exist but are not read.
func NewRawTable(location string, paths []string, sch *schema.Schema, opts Options, partBytes int64) (*RawTable, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("core: raw table %q has no files", location)
	}
	opts.fillDefaults()
	t := &RawTable{sch: sch, opts: opts}
	if partBytes <= 0 {
		per := t.segmentOptions(len(paths))
		for _, p := range paths {
			seg, err := NewTable(p, sch, per)
			if err != nil {
				return nil, err
			}
			t.segs = append(t.segs, seg)
		}
		return t, nil
	}
	if len(paths) != 1 {
		return nil, fmt.Errorf("core: raw table %q: byte-range partitions need exactly one file, got %d", location, len(paths))
	}
	// Registration validates existence the same way NewTable does (stat +
	// content probes, no data scan).
	if _, err := watch.Take(paths[0]); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	t.file, t.partBytes = paths[0], partBytes
	return t, nil
}

// splitBudget divides a table-level byte budget evenly across n segments
// (0 stays unlimited; tiny budgets never round down to unlimited).
func splitBudget(total int64, n int) int64 {
	if total <= 0 || n <= 1 {
		return total
	}
	per := total / int64(n)
	if per == 0 {
		per = 1
	}
	return per
}

// segmentOptions returns the options of one of n segments: the table's,
// with the budgets split evenly. The caller holds t.mu or has not shared t.
func (t *RawTable) segmentOptions(n int) Options {
	per := t.opts
	per.PosMapBudget = splitBudget(t.opts.PosMapBudget, n)
	per.CacheBudget = splitBudget(t.opts.CacheBudget, n)
	return per
}

// findRowStart returns the offset of the first row starting at or after
// target: the byte after the first '\n' at or past target-1. Returns size
// when the remainder holds no terminator (the tail belongs to the previous
// partition).
func findRowStart(r *rawfile.Reader, target, size int64) (int64, error) {
	const window = 64 << 10
	buf := make([]byte, window)
	//nodbvet:ctxloop-ok one-time structural discovery with no scan context; normally a single 64KB probe per boundary, not per-query work
	for off := target - 1; off < size; off += int64(len(buf)) {
		p := buf
		if rem := size - off; rem < int64(len(p)) {
			p = p[:rem]
		}
		n, err := r.ReadAt(p, off)
		if n > 0 {
			if i := bytes.IndexByte(p[:n], '\n'); i >= 0 {
				return off + int64(i) + 1, nil
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
	}
	return size, nil
}

// Resolve returns the segments in scan order, first finding a partitioned
// table's byte-range boundaries if they are not known yet. A failed
// discovery is returned, not cached, so the next use retries. Discovery
// reads the file; Found is the I/O-free view.
func (t *RawTable) Resolve() ([]*Table, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.segs != nil {
		return t.segs, nil
	}
	// Boundary probes are structural setup — charged to no query's
	// breakdown, so a query against a partitioned table reports the same
	// I/O counters as against the plain file.
	//nodbvet:lockorder-ok single-flight discovery: the mutex exists to serialize first-use boundary probing and no other lock is ever taken under it
	r, err := rawfile.Open(t.file, nil)
	if err != nil {
		return nil, fmt.Errorf("core: partition %s: %w", t.file, err) //nodbvet:errtaxonomy-ok rawfile.Open returns faults-classified errors; %w preserves the taxonomy
	}
	defer r.Close()
	size := r.Size()

	bounds := []int64{0}
	for target := t.partBytes; target < size; target += t.partBytes {
		lo, err := findRowStart(r, target, size)
		if err != nil {
			return nil, fmt.Errorf("core: partition %s: %w", t.file, err) //nodbvet:errtaxonomy-ok findRowStart surfaces rawfile ReadAt errors, already faults-classified
		}
		if lo >= size {
			break
		}
		if lo <= bounds[len(bounds)-1] {
			continue // a row longer than partBytes swallowed this target
		}
		bounds = append(bounds, lo)
		if next := target + t.partBytes; lo >= next {
			// The boundary overshot the next nominal target (giant row):
			// realign so partitions keep roughly partBytes each.
			target = (lo / t.partBytes) * t.partBytes
		}
	}
	per := t.segmentOptions(len(bounds))
	segs := make([]*Table, len(bounds))
	for i, lo := range bounds {
		hi := int64(0) // last partition: through EOF, so appends extend it
		if i+1 < len(bounds) {
			hi = bounds[i+1]
		}
		//nodbvet:lockorder-ok single-flight discovery: registration stat probes run once per table lifetime under the same serialization mutex
		seg, err := NewTableRange(t.file, t.sch, per, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("core: partition %s: %w", t.file, err) //nodbvet:errtaxonomy-ok NewTableRange wraps watch/rawfile errors that carry the taxonomy
		}
		segs[i] = seg
	}
	t.segs = segs
	return segs, nil
}

// Segments is Resolve without the error: nil when discovery fails.
func (t *RawTable) Segments() []*Table {
	segs, _ := t.Resolve()
	return segs
}

// Found returns the segments found so far without any file I/O: nil for a
// partitioned table before its first use or after a rewrite. Plan labels
// and statistics, which are read under the catalog lock, use it.
func (t *RawTable) Found() []*Table {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.segs
}

// PartitionBytes returns the byte-range partition size target, or 0 for a
// table of whole-file segments.
func (t *RawTable) PartitionBytes() int64 { return t.partBytes }

// Options returns the table-level option set.
func (t *RawTable) Options() Options {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.opts
}

// StatsCollector returns the collector the planner estimates selectivities
// from: the first segment's, an ordinary sample of the table in the same
// spirit as the paper's row-sampled statistics. It never triggers
// discovery; before any segment is found it serves an empty collector, so
// planning degrades to default estimates and the scan surfaces any I/O
// error.
func (t *RawTable) StatsCollector() *stats.Collector {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.segs) > 0 {
		return t.segs[0].StatsCollector()
	}
	if t.fallback == nil {
		t.fallback = stats.NewCollector(t.sch.Len(), 0)
	}
	return t.fallback
}

// RowCount returns the total learned row count, or -1 while any segment's
// count (or a partitioned table's segmentation) is still unknown.
func (t *RawTable) RowCount() int64 {
	segs := t.Found()
	if segs == nil {
		return -1
	}
	var total int64
	for _, seg := range segs {
		n := seg.RowCount()
		if n < 0 {
			return -1
		}
		total += n
	}
	return total
}

// OpenScan opens a scan over every segment in order. A lone segment scans
// on its own; several run the ordinary chunk pipeline each and concatenate
// in segment order. With Parallelism > 1 and ShardAhead > 1, up to
// ShardAhead segments' pipelines run at once (the read-ahead window) while
// results and structure updates still commit strictly in segment order.
// The first segment's scan opens eagerly so spec validation errors surface
// here, like Table.NewScan.
func (t *RawTable) OpenScan(spec ScanSpec) (Scanner, error) {
	segs, err := t.Resolve()
	if err != nil {
		return nil, err
	}
	first, err := segs[0].NewScan(spec)
	if err != nil {
		return nil, err
	}
	if len(segs) == 1 {
		return first, nil
	}
	opts := t.Options()
	win := opts.ShardAhead
	if win < 1 || opts.Parallelism <= 1 {
		// Sequential scans are driven entirely on the caller's goroutine;
		// prefetching would open files early for no overlap. Window 1 keeps
		// the fully-lazy serial path.
		win = 1
	}
	return &ShardedScan{segs: segs, spec: spec, win: win, cur: first}, nil
}

// Refresh checks every segment's file for outside changes, in segment
// order, and adapts each segment's structures. A failing segment does not
// abort the pass: every remaining segment still refreshes (best-effort), so
// one bad file cannot leave the others stale. The combined change reports
// the strongest change any segment saw (missing > rewritten > appended >
// unchanged). The first error comes back as is for a lone whole-file
// segment, and otherwise wrapped with its segment's path (the faults
// classification stays visible to errors.Is). A rewrite invalidates a
// partitioned table's row boundaries, so its segments are dropped and found
// again on next use.
func (t *RawTable) Refresh() (watch.Change, error) {
	segs, err := t.Resolve()
	if err != nil {
		return watch.Unchanged, err
	}
	combined := watch.Unchanged
	var firstErr error
	for _, seg := range segs {
		change, err := seg.Refresh()
		if err != nil && firstErr == nil {
			firstErr = err
			if len(segs) > 1 || t.partBytes > 0 {
				firstErr = fmt.Errorf("core: refresh shard %s: %w", seg.Path(), err)
			}
		}
		if change > combined {
			combined = change
		}
	}
	if combined >= watch.Rewritten && t.partBytes > 0 {
		t.mu.Lock()
		t.segs = nil
		t.mu.Unlock()
	}
	return combined, firstErr
}

// SetBudgets sets the table-level budgets and re-splits them across the
// segments found so far, evicting immediately when shrinking. Segments
// found later split the new totals.
func (t *RawTable) SetBudgets(posMapBudget, cacheBudget int64) {
	t.mu.Lock()
	t.opts.PosMapBudget = posMapBudget
	t.opts.CacheBudget = cacheBudget
	segs := t.segs
	t.mu.Unlock()
	for _, seg := range segs {
		seg.SetBudgets(splitBudget(posMapBudget, len(segs)), splitBudget(cacheBudget, len(segs)))
	}
}

// SetEnabled toggles the adaptive components on every segment (and in the
// table-level option set, so partial ALTERs read current values back).
func (t *RawTable) SetEnabled(posMap, cache, statsOn bool) {
	t.mu.Lock()
	t.opts.EnablePosMap = posMap
	t.opts.EnableCache = cache
	t.opts.EnableStats = statsOn
	segs := t.segs
	t.mu.Unlock()
	for _, seg := range segs {
		seg.SetEnabled(posMap, cache, statsOn)
	}
}

// SetErrorPolicy changes the malformed-input policy on every segment (and
// in the table-level option set). Each segment discards its own adaptive
// structures when the policy actually changes.
func (t *RawTable) SetErrorPolicy(p OnErrorPolicy, maxErrors int64) {
	t.mu.Lock()
	t.opts.OnError = p
	t.opts.MaxErrors = maxErrors
	segs := t.segs
	t.mu.Unlock()
	for _, seg := range segs {
		seg.SetErrorPolicy(p, maxErrors)
	}
}
