package core

import (
	"fmt"
	"io"

	"nodb/internal/value"
)

// ShardedScan concatenates the scans of a raw table's segments (shards:
// whole files or byte ranges) in segment order. The current shard plus up
// to win-1 prefetched successors are open at a time: shard i+1's pipeline
// processes chunks while shard i drains, but commits — and hence every
// adaptive-structure update and the shared aggregation merge — happen only
// when a shard becomes current, in strict shard order. An early Close
// (LIMIT, cancellation) never touches shards beyond the read-ahead window,
// and prefetched-but-undrained shards publish no structure updates.
type ShardedScan struct {
	segs []*Table
	spec ScanSpec

	idx     int   // current shard
	cur     *Scan // nil between shards / after Close
	started bool  // a Next/NextBatch/DrainAgg call happened
	win     int   // shard read-ahead window (1 = strictly serial)

	// ahead holds prefetched scans for shards idx+1..idx+win-1, in shard
	// order. A slot with a nil scan records a failed prefetch; the open is
	// retried synchronously when that shard becomes current, so transient
	// failures surface exactly as they would on the serial path.
	ahead []aheadShard

	// Aggregation pushdown: the shard scans share one merge table so chunk
	// partials fold across shard boundaries exactly as the single-file scan
	// folds them across chunks — same left-to-right merge order, hence
	// bitwise-identical float aggregates. Workers only build per-chunk
	// partials; the shared table is touched solely at commit time on the
	// consumer goroutine, so prefetched shards never race on it.
	agg       *AggPushdown
	aggTable  map[string]*PartialGroup
	aggGroups []*PartialGroup
}

// aheadShard is one prefetched slot of the shard read-ahead window.
type aheadShard struct {
	idx int
	sc  *Scan // nil when the prefetch open failed
}

// Close releases the current shard scan and every prefetched one; shards
// beyond the read-ahead window are never opened.
func (s *ShardedScan) Close() error {
	s.idx = len(s.segs)
	var first error
	if s.cur != nil {
		first = s.cur.Close()
		s.cur = nil
	}
	for _, a := range s.ahead {
		if a.sc != nil {
			if err := a.sc.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	s.ahead = nil
	return first
}

// installAgg pushes the shared aggregation state onto a freshly opened
// shard scan (before its pipeline starts).
func (s *ShardedScan) installAgg(sc *Scan, idx int) error {
	if !sc.PushAgg(s.agg) {
		sc.Close()
		// Unreachable unless ShardedScan.PushAgg and Scan.PushAgg drift
		// apart: an internal invariant, not a file fault.
		//nodbvet:errtaxonomy-ok internal invariant violation, not a scan-path fault
		return fmt.Errorf("core: shard %d refused aggregation pushdown", idx)
	}
	// Share the scan-level merge table so the shard's chunk partials fold
	// into the groups accumulated so far. The running group list is handed
	// over only when the shard becomes current (see open), after every
	// earlier shard committed its groups.
	sc.aggTable = s.aggTable
	return nil
}

// topUp extends the read-ahead window: shards idx+1..idx+win-1 get their
// scans opened and pipelines prefetched. A failed open parks an empty slot
// and stops extending (the retry happens when the shard becomes current).
func (s *ShardedScan) topUp() {
	if s.win <= 1 {
		return
	}
	next := s.idx + 1
	if n := len(s.ahead); n > 0 {
		next = s.ahead[n-1].idx + 1
	}
	for next-s.idx < s.win && next < len(s.segs) {
		if n := len(s.ahead); n > 0 && s.ahead[n-1].sc == nil {
			return // a failed slot blocks further read-ahead
		}
		sc, err := s.segs[next].NewScan(s.spec)
		if err == nil && s.agg != nil {
			if err = s.installAgg(sc, next); err != nil {
				sc = nil
			}
		}
		if err != nil {
			s.ahead = append(s.ahead, aheadShard{idx: next})
			return
		}
		sc.Prefetch()
		s.ahead = append(s.ahead, aheadShard{idx: next, sc: sc})
		next++
	}
}

// open advances to shard s.idx — adopting its prefetched scan when the
// window holds one — and tops the window back up. Reports io.EOF past the
// last shard.
func (s *ShardedScan) open() error {
	if s.idx >= len(s.segs) {
		return io.EOF
	}
	var sc *Scan
	if len(s.ahead) > 0 && s.ahead[0].idx == s.idx {
		sc = s.ahead[0].sc
		s.ahead = s.ahead[1:]
	}
	if sc == nil {
		var err error
		sc, err = s.segs[s.idx].NewScan(s.spec)
		if err != nil {
			return err
		}
		if s.agg != nil {
			if err := s.installAgg(sc, s.idx); err != nil {
				return err
			}
		}
	}
	if s.agg != nil {
		// Hand over the groups accumulated by all earlier shards: this shard
		// is now current, so its commits extend the shared merge state in
		// shard order.
		sc.aggGroups = s.aggGroups
	}
	s.cur = sc
	s.topUp()
	return nil
}

// finishShard closes the exhausted shard scan and steps to the next.
func (s *ShardedScan) finishShard() error {
	if s.agg != nil && s.cur != nil {
		s.aggGroups = s.cur.aggGroups
	}
	err := s.cur.Close()
	s.cur = nil
	s.idx++
	return err
}

// begin marks the scan started on its first drive and opens the read-ahead
// window. Deferred to this point (not OpenScan) so PushAgg — which must
// precede any pipeline start — still installs on every prefetched shard.
func (s *ShardedScan) begin() {
	if !s.started {
		s.started = true
		s.topUp()
	}
}

// Next implements Scanner: the next qualifying row, in shard order.
func (s *ShardedScan) Next() ([]value.Value, bool, error) {
	s.begin()
	for {
		if s.cur == nil {
			if err := s.open(); err == io.EOF {
				return nil, false, nil
			} else if err != nil {
				return nil, false, err
			}
		}
		row, ok, err := s.cur.Next()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return row, true, nil
		}
		if err := s.finishShard(); err != nil {
			return nil, false, err
		}
	}
}

// NextBatch implements Scanner: the next chunk of qualifying rows, in shard
// order. Batches never span shards (a chunk belongs to exactly one file).
func (s *ShardedScan) NextBatch() (*Batch, bool, error) {
	s.begin()
	for {
		if s.cur == nil {
			if err := s.open(); err == io.EOF {
				return nil, false, nil
			} else if err != nil {
				return nil, false, err
			}
		}
		b, ok, err := s.cur.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if ok {
			return b, true, nil
		}
		if err := s.finishShard(); err != nil {
			return nil, false, err
		}
	}
}

// PushAgg implements Scanner. The spec installs on the already-open first
// shard scan and is re-installed on every subsequent shard as it opens; all
// shard scans share one merge table, so cross-shard partial-aggregate
// merging happens in shard order inside the ordinary commit path.
func (s *ShardedScan) PushAgg(spec *AggPushdown) bool {
	if s.started || s.cur == nil || s.idx != 0 {
		return false
	}
	if !s.cur.PushAgg(spec) {
		return false
	}
	s.agg = spec
	s.aggTable = s.cur.aggTable // allocated by PushAgg; shared across shards
	return true
}

// DrainAgg implements Scanner: drives every shard to EOF and returns the
// merged groups in global first-seen row order.
func (s *ShardedScan) DrainAgg() ([]*PartialGroup, error) {
	if s.agg == nil {
		//nodbvet:errtaxonomy-ok API misuse by the caller, not a scan-path fault
		return nil, fmt.Errorf("core: DrainAgg without PushAgg")
	}
	s.begin()
	for {
		if s.cur == nil {
			if err := s.open(); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
		}
		if _, err := s.cur.DrainAgg(); err != nil {
			return nil, err
		}
		if err := s.finishShard(); err != nil {
			return nil, err
		}
	}
	return s.aggGroups, nil
}
