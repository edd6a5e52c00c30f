// Command insitubench is the repository's end-to-end benchmark. It drives
// the public nodb API from one closed-loop client (each query is sent only
// after the previous one finished) over generated raw files, checks every
// answer against an independent oracle, and prints one JSON result line.
//
// Run it through run.sh, which builds it from the checkout's source:
//
//	bash insitubench/run.sh --workload warm-explore --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics of a traced run. README.md describes the
// workloads and every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"nodb"
)

type benchWorkload struct {
	name string
	run  func(*env, *recorder) error
}

// workloads, in the order --workload all runs them.
var workloads = []benchWorkload{
	{"cold-explore", runColdExplore},
	{"warm-explore", runWarmExplore},
	{"external-scan", runExternalScan},
	{"log-append", runLogAppend},
}

// env is one run's settings and the figures its workload leaves for the
// report.
type env struct {
	dir            string // data files, inside the work directory
	seed           int64
	seconds        time.Duration
	trace          bool
	rowsAfterRound int64            // log-append's table size after a round, as the engine counts it
	memBefore      runtime.MemStats // at the start of the traced phase
	memAfter       runtime.MemStats // at its end
}

// fingerprint holds the exact counters of a run's deterministic passes.
// For a given build, workload and seed they must repeat bit for bit across
// runs.
type fingerprint struct {
	Setup          *counters  `json:"setup,omitempty"` // the first set-up pass (warm workloads)
	Passes         []counters `json:"passes"`          // the first timed pass of each slot
	RowsAfterRound int64      `json:"rows_after_round,omitempty"`
}

// timedPhases runs the workload's timed loop for the run's seconds. A
// traced run splits them: an untraced half, whose query_p50_ms is the base
// of trace.overhead_frac, then the traced half.
func (e *env) timedPhases(r *recorder, loop func(deadline time.Time) error) error {
	if !e.trace {
		r.phase = phaseUntraced
		return loop(time.Now().Add(e.seconds))
	}
	r.phase = phaseUntraced
	if err := loop(time.Now().Add(e.seconds / 2)); err != nil {
		return err
	}
	r.phase = phaseTraced
	runtime.ReadMemStats(&e.memBefore)
	err := loop(time.Now().Add(e.seconds / 2))
	runtime.ReadMemStats(&e.memAfter)
	return err
}

func main() {
	name := flag.String("workload", "", "workload: cold-explore, warm-explore, external-scan, log-append, or all of them in turn")
	seed := flag.Int64("seed", 1, "seed of the generated data, and so of every answer")
	seconds := flag.Float64("seconds", 20, "seconds to measure")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for data files and fingerprints")
	flag.Parse()
	ran := false
	for _, w := range workloads {
		if *name != w.name && *name != "all" {
			continue
		}
		if *name == "all" {
			fmt.Printf("== %s\n", w.name)
		}
		if err := run(w, *seed, *seconds, *trace == 1, *workdir); err != nil {
			fmt.Fprintln(os.Stderr, "insitubench:", err)
			os.Exit(1)
		}
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "insitubench: unknown workload %q\n", *name)
		os.Exit(2)
	}
}

func run(w benchWorkload, seed int64, seconds float64, trace bool, workdir string) error {
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{dir: dir, seed: seed, seconds: time.Duration(seconds * float64(time.Second)), trace: trace}

	probeBefore := probe()
	r := newRecorder(e.seconds)
	if err := w.run(e, r); err != nil {
		return err
	}
	probeAfter := probe()
	fmt.Printf("host.probe_ms before=%.3f after=%.3f\n", ms(probeBefore), ms(probeAfter))

	checkIsolation(r, w.name)
	checkFingerprint(r, e, w.name, workdir)
	res := result{
		Correct:   len(r.problems) == 0 && r.matched == r.attempted,
		Attempted: r.attempted,
		Failed:    r.failed,
	}
	if trace {
		res.Metrics = perLayer(r, e, (probeBefore+probeAfter)/2)
	} else {
		res.Metrics = endToEnd(r)
	}
	for _, p := range r.problems {
		fmt.Println("FAIL", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// probe is a fixed CPU task timed before and after every run: SHA-256 over
// 16 MiB on each of GOMAXPROCS goroutines at once, then a dependent random
// walk of 256Ki steps through a 32 MiB permutation, which stalls on memory
// the way positional-map and cache lookups do. It reports the median of
// five rounds after a warm-up. It moves with the machine, not with the
// program, and tells machine drift from a regression.
func probe() time.Duration {
	buf := make([]byte, 16<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	// Sattolo's algorithm: one cycle through every slot.
	next := make([]uint32, 8<<20)
	for i := range next {
		next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	var times []float64
	var at uint32
	for round := 0; round < 6; round++ {
		t := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < runtime.GOMAXPROCS(0); g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sha256.Sum256(buf)
			}()
		}
		wg.Wait()
		for i := 0; i < 1<<18; i++ {
			at = next[at]
		}
		if round > 0 {
			times = append(times, float64(time.Since(t)))
		}
	}
	probeSink = at
	return time.Duration(median(times))
}

// probeSink keeps the walk from being optimized away.
var probeSink uint32

// checkFingerprint checks the run's exact counters. Within the run, every
// set-up pass must match the first, and every timed pass the first timed
// pass of its slot (the traced half repeats the untraced half's work).
// Across runs, they must match the ones an earlier run of the same build,
// workload and seed stored in the work directory; a run stores its own
// only when it found no problem.
func checkFingerprint(r *recorder, e *env, name, workdir string) {
	var setup *pass
	var timed []*pass // by slot
	for i := range r.passes {
		p := &r.passes[i]
		first := &setup
		if p.phase != phaseSetup {
			for len(timed) <= p.slot {
				timed = append(timed, nil)
			}
			first = &timed[p.slot]
		}
		switch {
		case *first == nil:
			*first = p
		case p.counts != (*first).counts:
			r.problem("fingerprint: pass %d counters %+v differ from the first such pass's %+v", i, p.counts, (*first).counts)
		}
	}
	fp := fingerprint{RowsAfterRound: e.rowsAfterRound}
	if setup != nil {
		fp.Setup = &setup.counts
	}
	for _, p := range timed {
		fp.Passes = append(fp.Passes, p.counts)
	}
	got, err := json.Marshal(fp)
	if err != nil {
		r.problem("fingerprint: %v", err)
		return
	}
	fmt.Printf("fingerprint %s\n", got)
	build, err := buildID()
	if err != nil {
		r.problem("fingerprint: %v", err)
		return
	}
	path := filepath.Join(workdir, "fingerprints", build, fmt.Sprintf("%s-seed%d.json", name, e.seed))
	if want, err := os.ReadFile(path); err == nil {
		if string(want) != string(got) {
			r.problem("fingerprint: counters %s differ from an earlier run's %s", got, want)
		}
		return
	}
	if len(r.problems) > 0 || r.matched != r.attempted {
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		r.problem("fingerprint: %v", err)
	} else if err := os.WriteFile(path, got, 0o644); err != nil {
		r.problem("fingerprint: %v", err)
	}
}

// buildID names the running binary by its SHA-256, so that a change to the
// engine or the benchmark starts a new set of stored fingerprints.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// checkIsolation fails a run whose workload stopped measuring what it
// claims: warm-explore must tokenize nothing after set-up, and
// external-scan must never touch an adaptive structure. (Every log-append
// COUNT(*) is checked against the oracle's running row count, appended
// rows included, with every other answer.)
func checkIsolation(r *recorder, name string) {
	switch name {
	case "warm-explore":
		if n := r.sums[phaseUntraced].FieldsTokenized + r.sums[phaseTraced].FieldsTokenized; n != 0 {
			r.problem("isolation: warm-explore tokenized %d fields after set-up", n)
		}
	case "external-scan":
		for _, s := range r.sums {
			if s.NoDB != 0 || s.MapJumpFields != 0 || s.MapNearFields != 0 || s.CacheHitFields != 0 {
				r.problem("isolation: external-scan used adaptive structures: NoDB=%v jumps=%d near=%d hits=%d",
					s.NoDB, s.MapJumpFields, s.MapNearFields, s.CacheHitFields)
			}
		}
	}
}

// panels records the adaptive structures' footprint from the monitoring
// panels of a raw table.
func (r *recorder) panels(db *nodb.DB, table string) {
	ps, err := db.Panels(table)
	if err != nil {
		r.problem("panels: %v", err)
		return
	}
	r.posmapBytes, r.cacheBytes = 0, 0
	for _, p := range ps {
		r.posmapBytes += p.PosMap.UsedBytes
		r.cacheBytes += p.Cache.UsedBytes
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs by linear interpolation (xs is sorted in
// place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
