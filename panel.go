package nodb

import (
	"fmt"

	"nodb/internal/monitor"
)

// Panel is the monitoring snapshot of a raw table's adaptive structures
// (the demo's Figure-2 panel). Use its String method for the rendered
// display.
type Panel = monitor.Panel

// Panel captures the current monitoring panel for a raw table: the first
// segment's panel (a plain file has exactly one); Panels returns every
// segment's.
func (db *DB) Panel(name string) (*Panel, error) {
	ps, err := db.Panels(name)
	if err != nil {
		return nil, err
	}
	return ps[0], nil
}

// PoolPanel renders the DB-level chunk scheduler's current state (worker
// occupancy, scan queues, lifetime totals) in the monitoring panels' style.
func (db *DB) PoolPanel() string {
	return monitor.PoolPanel(db.sched.Stats())
}

// Panels captures the monitoring panels of a raw table's segments, one per
// segment in scan order. A plain file yields one panel labeled with the
// table name; several files yield "name[i/n] path" panels and a
// partitioned file "name[i/n] bytes lo-hi" panels (the last one open-ended,
// "bytes lo-"). A partitioned table finds its boundaries here if no query
// has yet, and a failure to do so is returned.
func (db *DB) Panels(name string) ([]*Panel, error) {
	t, err := db.lookupRaw(name)
	if err != nil {
		return nil, err
	}
	segs, err := t.Resolve()
	if err != nil {
		return nil, fmt.Errorf("nodb: table %q: %w", name, err)
	}
	if len(segs) == 1 && t.PartitionBytes() == 0 {
		return []*Panel{monitor.Snapshot(name, segs[0])}, nil
	}
	out := make([]*Panel, len(segs))
	for i, seg := range segs {
		where := seg.Path()
		if t.PartitionBytes() > 0 {
			lo, hi := seg.Range()
			where = fmt.Sprintf("bytes %d-", lo)
			if hi > 0 {
				where += fmt.Sprint(hi)
			}
		}
		out[i] = monitor.Snapshot(fmt.Sprintf("%s[%d/%d] %s", name, i, len(segs), where), seg)
	}
	return out, nil
}
