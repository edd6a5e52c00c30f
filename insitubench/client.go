package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"nodb"
)

// check is one query the closed-loop client sends, with the answer the
// oracle expects for it at the moment it is sent.
type check struct {
	sql     string
	label   string // template name, used in failure messages
	ordered bool   // rows must arrive in file order
	want    digest
}

// digest folds a result into a row count and a hash. An ordered digest
// depends on row order; an unordered one (GROUP BY output) does not.
type digest struct {
	ordered bool
	rows    int64
	hash    uint64
}

const (
	hashPrime  = 0x100000001b3
	hashOffset = 0xcbf29ce484222325
)

func mixWord(h, x uint64) uint64 {
	h = (h ^ x) * hashPrime
	return h ^ h>>31
}

// The row-hash primitives are shared by the engine side (hashRow) and the
// oracle, which calls them on values it parsed itself.
func rowStart() uint64                  { return hashOffset }
func hashNull(h uint64) uint64          { return mixWord(h, 0) }
func hashInt(h uint64, v int64) uint64  { return mixWord(mixWord(h, 1), uint64(v)) }
func hashStr(h uint64, s string) uint64 { return mixWord(hashBytes(mixWord(h, 3), s), uint64(len(s))) }
func hashFloat(h uint64, v float64) uint64 {
	return mixWord(mixWord(h, 2), math.Float64bits(v))
}

func hashBytes(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime
	}
	return h
}

func (d *digest) addRow(rh uint64) {
	rh = mixWord(rh, 0xff)
	if d.ordered {
		d.hash = d.hash*hashPrime + rh
	} else {
		d.hash += rh
	}
	d.rows++
}

// hashRow hashes one row as the engine returned it through Rows.Values.
func hashRow(vals []any) uint64 {
	h := rowStart()
	for _, v := range vals {
		switch x := v.(type) {
		case nil:
			h = hashNull(h)
		case int64:
			h = hashInt(h, x)
		case float64:
			h = hashFloat(h, x)
		case string:
			h = hashStr(h, x)
		default:
			h = mixWord(h, 0xdead) // a type the oracle never produces
		}
	}
	return h
}

// sample is one query as the client saw it. The four spans are contiguous:
// their sum is the query's latency from the QueryContext call to the end of
// Rows.Close.
type sample struct {
	phase    phase
	refresh  time.Duration // explicit DB.Refresh before the query (traced phase only)
	open     time.Duration // QueryContext: parse or plan-cache hit, pin, auto-refresh, build
	firstRow time.Duration // the first Next
	drain    time.Duration // every later Next plus all Values calls
	close    time.Duration // Rows.Close
	steals   uint64        // scheduler claims past the round-robin head during the query (traced phase only)
	maxDepth int           // the scheduler's queue-depth high-water mark after the query (traced phase only)
}

func (s *sample) latency() time.Duration { return s.open + s.firstRow + s.drain + s.close }

// phase says which part of a run a query belongs to.
type phase uint8

const (
	phaseSetup    phase = iota // warm-up passes, timed only as set-up
	phaseUntraced              // the measured phase, with tracing off
	phaseTraced                // the traced phase of a --trace 1 run
)

// pass is one run through a workload's query stream. Passes with the same
// slot do the same work: their counters must match exactly.
type pass struct {
	phase       phase
	slot        int           // the pass's place in a log-append round; 0 elsewhere
	wall        time.Duration // from the pass's start (Open on cold-explore) to its last answer
	firstAnswer time.Duration // from the pass's start to its first fully drained answer
	heapBytes   int64         // live heap after runtime.GC at the end of the pass, less the benchmark's own
	counts      counters
}

// counters are the deterministic work counters of a set of queries: for a
// given seed they repeat bit for bit from run to run.
type counters struct {
	FieldsTokenized int64 `json:"fields_tokenized"`
	FieldsConverted int64 `json:"fields_converted"`
	CacheHitFields  int64 `json:"hit_fields"`
	MapJumpFields   int64 `json:"jump_fields"`
	MapNearFields   int64 `json:"near_fields"`
	SchedTasks      int64 `json:"sched_tasks"`
	PlanCacheHits   int64 `json:"plan_cache_hits"`
	RowsScanned     int64 `json:"rows_scanned"`
	Queries         int64 `json:"queries"`
}

func (c *counters) add(s *nodb.QueryStats) {
	c.FieldsTokenized += s.FieldsTokenized
	c.FieldsConverted += s.FieldsConverted
	c.CacheHitFields += s.CacheHitFields
	c.MapJumpFields += s.MapJumpFields
	c.MapNearFields += s.MapNearFields
	c.SchedTasks += s.SchedTasks
	c.PlanCacheHits += s.PlanCacheHits
	c.RowsScanned += s.RowsScanned
	c.Queries++
}

// recorder is the closed-loop client: it sends one query at a time, checks
// every answer against the oracle and keeps every sample in memory, with
// the query's QueryStats summed per phase.
type recorder struct {
	phase    phase
	samples  []sample
	sums     [3]nodb.QueryStats // per phase
	passes   []pass
	setups   []time.Duration
	problems []string

	posmapBytes, cacheBytes int64 // adaptive-structure footprint from the last Panels
	heapBase                int64 // live heap before the first Open, less the recorder's own buffers

	attempted, matched, failed int
}

// newRecorder reserves room for the samples of a typical run up front, so
// that the slices seldom grow while the engine is being measured.
func newRecorder(seconds time.Duration) *recorder {
	return &recorder{
		samples: make([]sample, 0, 1000+int(200*seconds.Seconds())),
		passes:  make([]pass, 0, 1000),
		setups:  make([]time.Duration, 0, 1000),
	}
}

// ownBytes is the size of the recorder's growing buffers, which the live
// heap includes but heap_mb must not.
func (r *recorder) ownBytes() int64 {
	return int64(cap(r.samples))*int64(unsafe.Sizeof(sample{})) +
		int64(cap(r.passes))*int64(unsafe.Sizeof(pass{})) +
		int64(cap(r.setups))*int64(unsafe.Sizeof(time.Duration(0)))
}

// liveHeap is the live heap, less the recorder's own buffers. It collects
// twice: the first GC only moves sync.Pool contents (the engine's scratch
// buffers) to the pools' victim caches, and how many are pooled depends
// on timing.
func (r *recorder) liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc) - r.ownBytes()
}

// settle runs after the inputs are generated and before the first Open. It
// returns the generator's garbage to the OS, so the runtime's background
// scavenger does not run inside timed work, and takes the heap baseline:
// what the benchmark itself keeps live (inputs, expected answers), which
// heap_mb leaves out.
func (r *recorder) settle() {
	prewarmRuntime()
	debug.FreeOSMemory()
	r.heapBase = r.liveHeap()
}

// prewarmRuntime makes the Go runtime create more threads and goroutines
// than a run needs, so that the baseline holds them. The runtime never
// frees a thread's or a goroutine's descriptor, and how many the engine's
// workers and blocking reads make it create depends on timing; left to
// grow during the run, they move heap_mb by tens of KiB, which is a third
// of external-scan's figure.
func prewarmRuntime() {
	const n = 64
	var fds [2]int
	if err := syscall.Pipe(fds[:]); err != nil {
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b [1]byte
			syscall.Read(fds[0], b[:]) // blocks its thread, so the runtime starts another
		}()
	}
	time.Sleep(100 * time.Millisecond)
	syscall.Write(fds[1], make([]byte, n))
	wg.Wait()
	syscall.Close(fds[0])
	syscall.Close(fds[1])
}

// addStats adds every field of s to sum. All QueryStats fields are int64
// counters or durations.
func addStats(sum, s *nodb.QueryStats) {
	d, v := reflect.ValueOf(sum).Elem(), reflect.ValueOf(s).Elem()
	for i := 0; i < d.NumField(); i++ {
		d.Field(i).SetInt(d.Field(i).Int() + v.Field(i).Int())
	}
}

func (r *recorder) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// query sends c and drains its answer with Values, as a user of the API
// would. In the traced phase an explicit DB.Refresh of refreshTable (when
// not empty) is timed first.
func (r *recorder) query(db *nodb.DB, c *check, refreshTable string, p *pass) {
	s := sample{phase: r.phase}
	traced := r.phase == phaseTraced
	if traced && refreshTable != "" {
		t := time.Now()
		if _, err := db.Refresh(refreshTable); err != nil {
			r.problem("refresh %s: %v", refreshTable, err)
		}
		s.refresh = time.Since(t)
	}
	var sched0 nodb.SchedulerStats
	if traced {
		sched0 = db.SchedulerStats()
	}
	got := digest{ordered: c.ordered}
	t0 := time.Now()
	rows, err := db.QueryContext(context.Background(), c.sql)
	t1 := time.Now()
	s.open = t1.Sub(t0)
	if err == nil {
		first := rows.Next()
		t2 := time.Now()
		s.firstRow = t2.Sub(t1)
		if first {
			got.addRow(hashRow(rows.Values()))
			for rows.Next() {
				got.addRow(hashRow(rows.Values()))
			}
		}
		t3 := time.Now()
		s.drain = t3.Sub(t2)
		err = rows.Err()
		if cerr := rows.Close(); err == nil {
			err = cerr
		}
		s.close = time.Since(t3)
		stats := rows.Stats()
		addStats(&r.sums[r.phase], &stats)
		p.counts.add(&stats)
	}
	if traced {
		sched1 := db.SchedulerStats()
		s.steals, s.maxDepth = sched1.Steals-sched0.Steals, sched1.MaxDepth
	}
	r.attempted++
	switch {
	case err != nil:
		r.failed++
		r.problem("%s: %q failed: %v", c.label, c.sql, err)
	case got != c.want:
		r.problem("%s: %q answered %d rows (hash %x), the oracle expects %d rows (hash %x)",
			c.label, c.sql, got.rows, got.hash, c.want.rows, c.want.hash)
	default:
		r.matched++
	}
	r.samples = append(r.samples, s)
}

// beginPass starts a pass; runtime.GC first, so garbage left by earlier
// work is not charged to it.
func (r *recorder) beginPass() (*pass, time.Time) {
	runtime.GC()
	return &pass{phase: r.phase}, time.Now()
}

// endPass records a finished pass, measuring the live heap after a GC above
// the baseline settle took.
func (r *recorder) endPass(p *pass) {
	p.heapBytes = r.liveHeap() - r.heapBase
	r.passes = append(r.passes, *p)
}

// warmPass runs checks once on db as an untimed set-up pass, whatever phase
// the run is in, and returns the time since t0.
func (r *recorder) warmPass(db *nodb.DB, checks []check, p *pass, t0 time.Time) time.Duration {
	saved := r.phase
	r.phase, p.phase = phaseSetup, phaseSetup
	r.runPass(db, checks, "", p, t0, nil)
	d := time.Since(t0)
	r.endPass(p)
	r.phase = saved
	return d
}

// runPass sends the checks in order as one pass started at t0. before, when
// not nil, runs ahead of each query (log-append's writes) and is part of
// the pass's wall time.
func (r *recorder) runPass(db *nodb.DB, checks []check, refreshTable string, p *pass, t0 time.Time, before func(i int) error) {
	for i := range checks {
		if before != nil {
			if err := before(i); err != nil {
				r.problem("before query %d: %v", i, err)
			}
		}
		r.query(db, &checks[i], refreshTable, p)
		if i == 0 {
			p.firstAnswer = time.Since(t0)
		}
	}
	p.wall = time.Since(t0)
}
