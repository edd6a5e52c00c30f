package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"nodb"
	"nodb/internal/datagen"
)

// log-append: a LOCATION glob of day-*.csv shards of the log-like
// MixedTable shape. The timed phase is a sequence of rounds. A round
// restores the newest shard to its generated size, warms a fresh session
// with one pass of the mix, then runs logRoundPasses passes; before each
// of their queries the client appends a fixed batch of rows to the newest
// shard, and the query's auto-refresh must pick them up. Every round does
// the same work, so how much is appended does not depend on the engine's
// speed.
const (
	logTable        = "logs"
	logShards       = 4
	logRowsPerShard = 50_000
	logBatchRows    = 8
	logPassQueries  = 24
	// logRoundPasses passes of 24 queries: a round has 120 timed queries,
	// enough for a valid p90, and appends 960 rows.
	logRoundPasses = 5
	logRoundRows   = logRoundPasses * logPassQueries * logBatchRows
)

// logTemplate is one of the fixed query shapes of the log-append mix.
type logTemplate int

const (
	tmplCount logTemplate = iota
	tmplGroupBy
	tmplUser
	tmplTail
	tmplLowScore
	tmplNotePrefix
	numLogTemplates
)

var logTemplateNames = [numLogTemplates]string{"count", "group-by", "text-equal", "tail", "low-score", "text-prefix"}

// tailSpan bounds the tail template's id range, so its answer stops
// growing once the first appended rows are past it.
const tailSpan = 1000

// logParams are the seeded constants of the templates.
type logParams struct {
	user       string  // a user value for the text-equality template
	notePrefix string  // a LIKE prefix for the note column
	tailID     int64   // [tailID, tailID+tailSpan) covers every shard's tail and the first appended rows
	lowScore   float64 // a selective float predicate
}

// newLogParams draws the constants so that their selectivity does not
// depend on the seed: a user (about 1 row in 500), a "v1d" note prefix
// (111 of the 2,000 notes), a tail range, and a score bound near 1.5%.
func newLogParams(rng *rand.Rand) logParams {
	return logParams{
		user:       padText(rng.Int63n(500), 12),
		notePrefix: fmt.Sprintf("v1%d", rng.Intn(10)),
		tailID:     logRowsPerShard - 200 - rng.Int63n(200),
		lowScore:   float64(150 + rng.Intn(5)),
	}
}

// padText renders a datagen text value: "v<n>" padded with 'x'.
func padText(v int64, width int) string {
	b := []byte(fmt.Sprintf("v%d", v))
	for len(b) < width {
		b = append(b, 'x')
	}
	return string(b)
}

func (p logParams) sql(t logTemplate) string {
	switch t {
	case tmplCount:
		return "SELECT COUNT(*) FROM logs"
	case tmplGroupBy:
		return "SELECT grp, COUNT(*), MAX(score), SUM(id) FROM logs GROUP BY grp"
	case tmplUser:
		return fmt.Sprintf("SELECT id, score FROM logs WHERE user = '%s'", p.user)
	case tmplTail:
		return fmt.Sprintf("SELECT user, note, score FROM logs WHERE id >= %d AND id < %d", p.tailID, p.tailID+tailSpan)
	case tmplLowScore:
		return fmt.Sprintf("SELECT id, grp, score FROM logs WHERE score < %g", p.lowScore)
	default:
		return fmt.Sprintf("SELECT COUNT(*), MIN(score), MAX(score) FROM logs WHERE note LIKE '%s%%'", p.notePrefix)
	}
}

type logAppend struct {
	glob, newest, schema string
	newestSize           int64 // the newest shard's generated size, restored before each round
	params               logParams
	mix                  []logTemplate // one pass: every template four times, in a fixed order
	oracle               *logOracle
	warm                 []check // the mix on the generated shards
	// batches[j][i] is appended before query i of a round's pass j, and
	// checks[j][i] is that query's answer just after it lands.
	batches [logRoundPasses][][]byte
	checks  [logRoundPasses][]check
	rows    int64 // the table's rows after a round
}

func prepareLogAppend(e *env) (*logAppend, error) {
	rng := rand.New(rand.NewSource(e.seed))
	la := &logAppend{params: newLogParams(rng)}
	la.oracle = newLogOracle(la.params)
	for t := logTemplate(0); t < numLogTemplates; t++ {
		for i := 0; i < logPassQueries/int(numLogTemplates); i++ {
			la.mix = append(la.mix, t)
		}
	}
	// The order is the same for every seed, as first_answer_ms depends on
	// which template comes first.
	order := rand.New(rand.NewSource(streamSeed))
	order.Shuffle(len(la.mix), func(i, j int) { la.mix[i], la.mix[j] = la.mix[j], la.mix[i] })

	var appended []byte // the newest shard's rows past its generated size
	for i := 0; i < logShards; i++ {
		rows := logRowsPerShard
		if i == logShards-1 {
			rows += logRoundRows
		}
		spec := datagen.MixedTable(rows, e.seed*31+int64(i))
		la.schema = spec.SchemaSpec()
		var buf bytes.Buffer
		if _, err := spec.WriteTo(&buf); err != nil {
			return nil, err
		}
		data := buf.Bytes()
		if i == logShards-1 {
			cut := lineOffset(data, logRowsPerShard)
			data, appended = data[:cut], data[cut:]
			la.newestSize = int64(cut)
		}
		path := filepath.Join(e.dir, fmt.Sprintf("day-%d.csv", i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
		if err := la.oracle.feed(bytes.NewReader(data)); err != nil {
			return nil, err
		}
		la.newest = path
	}
	la.glob = filepath.Join(e.dir, "day-*.csv")
	la.warm = la.passChecks()
	for j := range la.batches {
		var err error
		if appended, err = la.planPass(j, appended); err != nil {
			return nil, err
		}
	}
	la.rows = la.oracle.total
	return la, nil
}

// lineOffset is the byte offset where line n (0-based) of data starts.
func lineOffset(data []byte, n int) int {
	off := 0
	for ; n > 0; n-- {
		off += bytes.IndexByte(data[off:], '\n') + 1
	}
	return off
}

// check is template t answered as of now. A COUNT(*) failure names the
// row count the oracle expects, appended rows included.
func (la *logAppend) check(t logTemplate) check {
	label := logTemplateNames[t]
	if t == tmplCount {
		label = fmt.Sprintf("COUNT(*) must see all %d rows", la.oracle.total)
	}
	return check{sql: la.params.sql(t), label: label, ordered: t != tmplGroupBy, want: la.oracle.answer(t)}
}

// passChecks is one pass of the mix, answered as of now.
func (la *logAppend) passChecks() []check {
	out := make([]check, len(la.mix))
	for i, t := range la.mix {
		out[i] = la.check(t)
	}
	return out
}

// planPass cuts pass j's batches from the front of rows, answers each query
// as of just after its batch lands, and returns the rows left.
func (la *logAppend) planPass(j int, rows []byte) ([]byte, error) {
	la.batches[j] = make([][]byte, len(la.mix))
	la.checks[j] = make([]check, len(la.mix))
	for i, t := range la.mix {
		cut := lineOffset(rows, logBatchRows)
		b := bytes.Clone(rows[:cut])
		rows = rows[cut:]
		if err := la.oracle.feed(bytes.NewReader(b)); err != nil {
			return nil, err
		}
		la.batches[j][i] = b
		la.checks[j][i] = la.check(t)
	}
	return rows, nil
}

// engineRows is the table's row count as the engine's panels report it.
func engineRows(r *recorder, db *nodb.DB) int64 {
	ps, err := db.Panels(logTable)
	if err != nil {
		r.problem("panels: %v", err)
		return -1
	}
	var n int64
	for _, p := range ps {
		n += p.RowCount
	}
	return n
}

// appendRows appends one batch to the newest shard.
func (la *logAppend) appendRows(b []byte) error {
	f, err := os.OpenFile(la.newest, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (la *logAppend) open() (*nodb.DB, error) {
	db, err := nodb.Open(nodb.Config{})
	if err != nil {
		return nil, err
	}
	if err := db.RegisterRaw(logTable, la.glob, la.schema, nil); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// round restores the newest shard, sets a fresh session up (timed as
// setup_s: the restore, Open, registration and the warming pass) and runs
// the round's timed passes on it.
func (la *logAppend) round(e *env, r *recorder) error {
	p, t0 := r.beginPass()
	if err := os.Truncate(la.newest, la.newestSize); err != nil {
		return err
	}
	db, err := la.open()
	if err != nil {
		return err
	}
	defer db.Close()
	r.setups = append(r.setups, r.warmPass(db, la.warm, p, t0))
	for j := range la.batches {
		p, t0 := r.beginPass()
		p.slot = j
		r.runPass(db, la.checks[j], logTable, p, t0, func(i int) error { return la.appendRows(la.batches[j][i]) })
		r.endPass(p)
	}
	e.rowsAfterRound = engineRows(r, db)
	if e.rowsAfterRound != la.rows {
		r.problem("log-append: the engine counts %d rows after a round, the files hold %d", e.rowsAfterRound, la.rows)
	}
	r.panels(db, logTable)
	return nil
}

func runLogAppend(e *env, r *recorder) error {
	la, err := prepareLogAppend(e)
	if err != nil {
		return err
	}
	r.settle()
	rounds := 0
	timed := func(deadline time.Time) error {
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			if err := la.round(e, r); err != nil {
				return err
			}
			rounds++
		}
		return nil
	}
	if err := e.timedPhases(r, timed); err != nil {
		return err
	}
	fmt.Printf("log-append: %d rounds, each appending %d rows in %d-row batches to a %d-row table\n",
		rounds, logRoundRows, logBatchRows, logShards*logRowsPerShard)
	return nil
}
