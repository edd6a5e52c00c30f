package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nodb"
	"nodb/internal/datagen"
	"nodb/internal/workload"
)

// cold-explore, warm-explore and external-scan share one file and one
// query stream: the paper's Part-II exploration over a 200k-row, 30-int-
// column table.
const (
	exploreTable    = "explore"
	exploreRows     = 200_000
	exploreAttrs    = 30
	exploreEpochs   = 3
	queriesPerEpoch = 8
	// setupsPerPass is how many set-ups the explore workloads time before
	// each pass. Set-up (Open plus a registration that reads nothing) is
	// sub-millisecond and swings by 2x from second to second, so its
	// samples are spread over the whole run.
	setupsPerPass = 8
	// minPasses keeps p90 valid however short the run: 5 passes of 24
	// queries leave at least 12 samples beyond it.
	minPasses = 5
	// streamSeed fixes the query stream, so every seed asks for the same
	// work: which attributes a query touches decides how much it costs. The
	// run's seed changes the data, and so every answer.
	streamSeed = 1
)

type explore struct {
	path, schema string
	checks       []check
}

// partTwoStream is the exploration stream: 3 epochs whose 10-attribute
// windows shift across the table, 2 attributes projected per query, a 25%
// filter on the window's first attribute, and every third query an
// aggregate.
func partTwoStream(spec *datagen.Spec) []string {
	window := exploreAttrs / exploreEpochs
	var specs []workload.EpochSpec
	for e := 0; e < exploreEpochs; e++ {
		lo := e * window
		for q := 0; q < queriesPerEpoch; q++ {
			specs = append(specs, workload.EpochSpec{
				Queries: 1, AttrLo: lo, AttrHi: lo + window - 1, ProjectK: 2,
				FilterAttr: lo, SelectivityPct: 25, Card: 1000,
				Aggregate: len(specs)%3 == 2,
			})
		}
	}
	var out []string
	for _, q := range workload.Epochs(exploreTable, spec.Schema(), specs, streamSeed) {
		out = append(out, q.SQL)
	}
	return out
}

func prepareExplore(e *env) (*explore, error) {
	spec := datagen.IntTable(exploreRows, exploreAttrs, e.seed)
	var buf bytes.Buffer
	if _, err := spec.WriteTo(&buf); err != nil {
		return nil, err
	}
	x := &explore{path: filepath.Join(e.dir, "explore.csv"), schema: spec.SchemaSpec()}
	if err := os.WriteFile(x.path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	checks, err := exploreOracle(bytes.NewReader(buf.Bytes()), exploreAttrs, partTwoStream(&spec))
	if err != nil {
		return nil, err
	}
	x.checks = checks
	return x, nil
}

// open is a fresh session: Open plus the table's registration, in situ
// (raw) or as external files (baseline).
func (x *explore) open(raw bool) (*nodb.DB, error) {
	db, err := nodb.Open(nodb.Config{})
	if err != nil {
		return nil, err
	}
	if raw {
		err = db.RegisterRaw(exploreTable, x.path, x.schema, nil)
	} else {
		err = db.RegisterBaseline(exploreTable, x.path, x.schema)
	}
	if err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// sampleSetups times setupsPerPass fresh sessions from Open to the end of
// registration, closing each one.
func (r *recorder) sampleSetups(open func() (*nodb.DB, error)) error {
	runtime.GC()
	for i := 0; i < setupsPerPass; i++ {
		t := time.Now()
		db, err := open()
		if err != nil {
			return err
		}
		r.setups = append(r.setups, time.Since(t))
		db.Close()
	}
	return nil
}

func runColdExplore(e *env, r *recorder) error {
	x, err := prepareExplore(e)
	if err != nil {
		return err
	}
	r.settle()
	timed := func(deadline time.Time) error {
		for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
			if err := r.sampleSetups(func() (*nodb.DB, error) { return x.open(true) }); err != nil {
				return err
			}
			p, t0 := r.beginPass()
			db, err := x.open(true)
			if err != nil {
				return err
			}
			r.runPass(db, x.checks, exploreTable, p, t0, nil)
			r.endPass(p)
			r.panels(db, exploreTable)
			db.Close()
		}
		return nil
	}
	return e.timedPhases(r, timed)
}

func runWarmExplore(e *env, r *recorder) error  { return runRounds(e, r, true) }
func runExternalScan(e *env, r *recorder) error { return runRounds(e, r, false) }

// runRounds warms one session with an untimed pass of the stream and
// repeats the stream on it in rounds. Before each round it times fresh
// set-ups, as cold-explore does. The warming pass is not timed: it is the
// same work as a cold-explore session (raw) or as every timed pass
// (baseline), so its time would copy a data_to_answer_s.
func runRounds(e *env, r *recorder, raw bool) error {
	x, err := prepareExplore(e)
	if err != nil {
		return err
	}
	r.settle()
	open := func() (*nodb.DB, error) { return x.open(raw) }
	p, t0 := r.beginPass()
	db, err := open()
	if err != nil {
		return err
	}
	defer db.Close()
	r.warmPass(db, x.checks, p, t0)
	refresh := ""
	if raw {
		refresh = exploreTable
	}
	timed := func(deadline time.Time) error {
		for n := 0; n < minPasses || time.Now().Before(deadline); n++ {
			if err := r.sampleSetups(open); err != nil {
				return err
			}
			p, t0 := r.beginPass()
			r.runPass(db, x.checks, refresh, p, t0, nil)
			r.endPass(p)
		}
		return nil
	}
	if err := e.timedPhases(r, timed); err != nil {
		return err
	}
	if raw {
		r.panels(db, exploreTable)
	}
	return nil
}
