package main

// The oracle computes every expected answer straight from the generated
// bytes, with encoding/csv and strconv and a small evaluator for the fixed
// query templates. It never runs the engine.

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// readCSV calls fn with every record of r, reusing the record slice.
func readCSV(r io.Reader, fields int, fn func(rec []string) error) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = fields
	for {
		rec, err := cr.Read()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// exploreQuery is one query of the Part-II stream, as the evaluator reads
// it back from its SQL: either a projection of int columns or
// COUNT(*), SUM(col), with an optional "col < threshold" filter.
type exploreQuery struct {
	sql       string
	project   []int // projected columns
	aggregate bool  // COUNT(*), SUM(sumCol)
	sumCol    int
	filterCol int // -1 when unfiltered
	filterLT  int64

	count, sum int64
	rows       digest
}

var (
	exploreSQL = regexp.MustCompile(`^SELECT (.+) FROM \w+(?: WHERE a(\d+) < (\d+))?$`)
	exploreCol = regexp.MustCompile(`^a(\d+)$`)
	exploreSum = regexp.MustCompile(`^COUNT\(\*\), SUM\(a(\d+)\)$`)
)

func parseExploreQuery(q string) (*exploreQuery, error) {
	m := exploreSQL.FindStringSubmatch(q)
	if m == nil {
		return nil, fmt.Errorf("oracle: no template matches %q", q)
	}
	eq := &exploreQuery{sql: q, filterCol: -1, rows: digest{ordered: true}}
	if m[2] != "" {
		eq.filterCol, _ = strconv.Atoi(m[2])
		eq.filterLT, _ = strconv.ParseInt(m[3], 10, 64)
	}
	if s := exploreSum.FindStringSubmatch(m[1]); s != nil {
		eq.aggregate = true
		eq.sumCol, _ = strconv.Atoi(s[1])
		return eq, nil
	}
	for _, item := range strings.Split(m[1], ", ") {
		c := exploreCol.FindStringSubmatch(item)
		if c == nil {
			return nil, fmt.Errorf("oracle: unsupported select item %q in %q", item, q)
		}
		col, _ := strconv.Atoi(c[1])
		eq.project = append(eq.project, col)
	}
	return eq, nil
}

func (q *exploreQuery) addRow(vals []int64) {
	if q.filterCol >= 0 && vals[q.filterCol] >= q.filterLT {
		return
	}
	if q.aggregate {
		q.count++
		q.sum += vals[q.sumCol]
		return
	}
	h := rowStart()
	for _, c := range q.project {
		h = hashInt(h, vals[c])
	}
	q.rows.addRow(h)
}

func (q *exploreQuery) answer() digest {
	if !q.aggregate {
		return q.rows
	}
	d := digest{ordered: true}
	h := hashInt(rowStart(), q.count)
	if q.count == 0 {
		h = hashNull(h)
	} else {
		h = hashInt(h, q.sum)
	}
	d.addRow(h)
	return d
}

// exploreOracle reads the int table once and answers every query of the
// stream.
func exploreOracle(r io.Reader, ncols int, stream []string) ([]check, error) {
	qs := make([]*exploreQuery, len(stream))
	for i, s := range stream {
		q, err := parseExploreQuery(s)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	vals := make([]int64, ncols)
	err := readCSV(r, ncols, func(rec []string) error {
		for i, f := range rec {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return fmt.Errorf("oracle: field %d: %w", i, err)
			}
			vals[i] = v
		}
		for _, q := range qs {
			q.addRow(vals)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	checks := make([]check, len(qs))
	for i, q := range qs {
		label := "projection"
		if q.aggregate {
			label = "aggregate"
		}
		checks[i] = check{sql: q.sql, label: label, ordered: true, want: q.answer()}
	}
	return checks, nil
}

// logRow is one parsed row of the log-like MixedTable shape
// (id int, user text, score float, grp int, note text).
type logRow struct {
	id, grp    int64
	score      float64
	user, note string
}

func parseLogRow(rec []string) (logRow, error) {
	var r logRow
	var err1, err2, err3 error
	r.id, err1 = strconv.ParseInt(rec[0], 10, 64)
	r.user = rec[1]
	r.score, err2 = strconv.ParseFloat(rec[2], 64)
	r.grp, err3 = strconv.ParseInt(rec[3], 10, 64)
	r.note = rec[4]
	if err := errors.Join(err1, err2, err3); err != nil {
		return r, fmt.Errorf("oracle: %w", err)
	}
	return r, nil
}

// logGroup is the running state of one GROUP BY grp group.
type logGroup struct {
	count, sumID int64
	maxScore     float64
}

// scoreRange is the running COUNT(*), MIN(score), MAX(score) of the rows
// whose note matches a LIKE prefix.
type scoreRange struct {
	count    int64
	min, max float64
}

// logOracle keeps the answer of every log-append template up to date as
// rows arrive, initial shards first and then each appended batch. Appends
// go to the newest shard, which is last in the glob's order, so ordered
// answers only ever grow at their end.
type logOracle struct {
	p      logParams
	total  int64
	groups map[int64]*logGroup
	byUser digest // SELECT id, score WHERE user = p.user
	tail   digest // SELECT user, note, score WHERE id in [p.tailID, p.tailID+tailSpan)
	low    digest // SELECT id, grp, score WHERE score < p.lowScore
	notes  scoreRange
}

func newLogOracle(p logParams) *logOracle {
	return &logOracle{
		p:      p,
		groups: make(map[int64]*logGroup),
		byUser: digest{ordered: true},
		tail:   digest{ordered: true},
		low:    digest{ordered: true},
	}
}

// feed adds every row of a CSV chunk.
func (o *logOracle) feed(r io.Reader) error {
	return readCSV(r, 5, func(rec []string) error {
		row, err := parseLogRow(rec)
		if err != nil {
			return err
		}
		o.add(row)
		return nil
	})
}

func (o *logOracle) add(r logRow) {
	o.total++
	g := o.groups[r.grp]
	if g == nil {
		g = &logGroup{maxScore: r.score}
		o.groups[r.grp] = g
	}
	g.count++
	g.sumID += r.id
	g.maxScore = max(g.maxScore, r.score)
	if r.user == o.p.user {
		o.byUser.addRow(hashFloat(hashInt(rowStart(), r.id), r.score))
	}
	if r.id >= o.p.tailID && r.id < o.p.tailID+tailSpan {
		o.tail.addRow(hashFloat(hashStr(hashStr(rowStart(), r.user), r.note), r.score))
	}
	if r.score < o.p.lowScore {
		o.low.addRow(hashFloat(hashInt(hashInt(rowStart(), r.id), r.grp), r.score))
	}
	if strings.HasPrefix(r.note, o.p.notePrefix) {
		if o.notes.count == 0 {
			o.notes.min, o.notes.max = r.score, r.score
		}
		o.notes.count++
		o.notes.min = min(o.notes.min, r.score)
		o.notes.max = max(o.notes.max, r.score)
	}
}

// answer is the expected result of template t now.
func (o *logOracle) answer(t logTemplate) digest {
	switch t {
	case tmplCount:
		d := digest{ordered: true}
		d.addRow(hashInt(rowStart(), o.total))
		return d
	case tmplGroupBy:
		d := digest{}
		for grp, g := range o.groups {
			d.addRow(hashInt(hashFloat(hashInt(hashInt(rowStart(), grp), g.count), g.maxScore), g.sumID))
		}
		return d
	case tmplUser:
		return o.byUser
	case tmplTail:
		return o.tail
	case tmplLowScore:
		return o.low
	default: // tmplNotePrefix
		d := digest{ordered: true}
		h := hashInt(rowStart(), o.notes.count)
		if o.notes.count == 0 {
			h = hashNull(hashNull(h))
		} else {
			h = hashFloat(hashFloat(h, o.notes.min), o.notes.max)
		}
		d.addRow(h)
		return d
	}
}
