package nodb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"nodb/internal/rawfile"
)

// rawSurface is everything a user can read about a raw table's shape
// without querying its rows: the EXPLAIN scan label, the SHOW TABLES row,
// the monitoring-panel labels, and what DB.Refresh reports while the files
// are intact and after one is deleted.
type rawSurface struct {
	explain      string
	show         string
	panels       []string
	refresh      string
	deleted      string // DB.Refresh's change string once a file is gone
	deletedErr   string
	deletedAgain string // the error text of the next Refresh
}

// TestRawTableSurface pins the exact user-visible strings for the three
// ways a raw table can be registered — one whole file, a glob of three
// files, and one file split into byte-range partitions, the latter both
// before and after its first scan. Every surface is read on a fresh
// registration, so "before" really is the first thing the table sees.
func TestRawTableSurface(t *testing.T) {
	const schemaDDL = "(id int, name text)"
	row := func(i int) string { return fmt.Sprintf("%05d,n%05d\n", i, i) } // 13 bytes

	cases := []struct {
		name      string
		files     map[string]int // file -> rows
		location  string         // relative to the data directory
		with      string
		scanFirst bool
		victim    string // file deleted for the refresh-error check
		want      rawSurface
	}{
		{
			name:      "plain",
			files:     map[string]int{"plain.csv": 200},
			location:  "plain.csv",
			with:      "parallelism = 2",
			scanFirst: true,
			victim:    "plain.csv",
			want: rawSurface{
				explain:      "RawScan(t mode=in-situ attrs=[id] parallel=2 pool=2)",
				show:         "[t in-situ $DIR/plain.csv 2 1]",
				panels:       []string{"t"},
				refresh:      "unchanged",
				deleted:      "missing",
				deletedErr:   "faults: file changed under scan ($DIR/plain.csv): raw file disappeared",
				deletedAgain: "faults: file changed under scan ($DIR/plain.csv): raw file disappeared",
			},
		},
		{
			name:      "glob",
			files:     map[string]int{"a.csv": 70, "b.csv": 70, "c.csv": 60},
			location:  "*.csv",
			with:      "parallelism = 2",
			scanFirst: true,
			victim:    "b.csv",
			want: rawSurface{
				explain: "RawScan(t mode=in-situ attrs=[id] shards=3 parallel=2 pool=2)",
				show:    "[t in-situ $DIR/*.csv 2 3]",
				panels: []string{
					"t[0/3] $DIR/a.csv",
					"t[1/3] $DIR/b.csv",
					"t[2/3] $DIR/c.csv",
				},
				refresh:      "unchanged",
				deleted:      "missing",
				deletedErr:   "core: refresh shard $DIR/b.csv: faults: file changed under scan ($DIR/b.csv): raw file disappeared",
				deletedAgain: "core: refresh shard $DIR/b.csv: faults: file changed under scan ($DIR/b.csv): raw file disappeared",
			},
		},
		{
			name:     "partitioned before first scan",
			files:    map[string]int{"big.csv": 200},
			location: "big.csv",
			with:     "parallelism = 2, partition_bytes = 1000",
			victim:   "big.csv",
			want: rawSurface{
				explain: "RawScan(t mode=in-situ attrs=[id] partitions=3 parallel=2 pool=2)",
				show:    "[t in-situ $DIR/big.csv 2 3]",
				panels: []string{
					"t[0/3] bytes 0-1001",
					"t[1/3] bytes 1001-2002",
					"t[2/3] bytes 2002-",
				},
				refresh:      "unchanged",
				deleted:      "unchanged",
				deletedErr:   "core: partition $DIR/big.csv: faults: read error ($DIR/big.csv): open $DIR/big.csv: no such file or directory",
				deletedAgain: "core: partition $DIR/big.csv: faults: read error ($DIR/big.csv): open $DIR/big.csv: no such file or directory",
			},
		},
		{
			name:      "partitioned after first scan",
			files:     map[string]int{"big.csv": 200},
			location:  "big.csv",
			with:      "parallelism = 2, partition_bytes = 1000",
			scanFirst: true,
			victim:    "big.csv",
			want: rawSurface{
				explain: "RawScan(t mode=in-situ attrs=[id] partitions=3 parallel=2 pool=2)",
				show:    "[t in-situ $DIR/big.csv 2 3]",
				panels: []string{
					"t[0/3] bytes 0-1001",
					"t[1/3] bytes 1001-2002",
					"t[2/3] bytes 2002-",
				},
				refresh:      "unchanged",
				deleted:      "missing",
				deletedErr:   "core: refresh shard $DIR/big.csv: faults: file changed under scan ($DIR/big.csv): raw file disappeared",
				deletedAgain: "core: partition $DIR/big.csv: faults: read error ($DIR/big.csv): open $DIR/big.csv: no such file or directory",
			},
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var dir string
			// open registers the table on a fresh DB over freshly written
			// files, scanning it once when the case asks for it.
			open := func() *DB {
				t.Helper()
				dir = t.TempDir()
				for name, n := range c.files {
					var sb strings.Builder
					for i := 0; i < n; i++ {
						sb.WriteString(row(i))
					}
					if err := os.WriteFile(filepath.Join(dir, name), []byte(sb.String()), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				db, err := Open(Config{MaxWorkers: 2})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				ddl := fmt.Sprintf("CREATE EXTERNAL TABLE t %s USING raw LOCATION '%s' WITH (%s)",
					schemaDDL, filepath.Join(dir, c.location), c.with)
				if err := db.Exec(nil, ddl); err != nil {
					t.Fatal(err)
				}
				if c.scanFirst {
					if res, err := db.Query("SELECT COUNT(*) FROM t"); err != nil || fmt.Sprint(res.Rows) != "[[200]]" {
						t.Fatalf("first scan: %v, %v", res, err)
					}
				}
				return db
			}
			norm := func(s string) string { return strings.ReplaceAll(s, dir, "$DIR") }
			errText := func(err error) string {
				if err == nil {
					return "<nil>"
				}
				return norm(err.Error())
			}

			var got rawSurface

			db := open()
			res, err := db.Query("EXPLAIN SELECT id FROM t")
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Rows {
				if line := strings.TrimSpace(fmt.Sprint(r[0])); strings.HasPrefix(line, "RawScan(") {
					got.explain = line
				}
			}

			db = open()
			res, err = db.Query("SHOW TABLES")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("SHOW TABLES: %d rows, want 1", len(res.Rows))
			}
			got.show = norm(fmt.Sprint(res.Rows[0]))

			db = open()
			panels, err := db.Panels("t")
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range panels {
				got.panels = append(got.panels, norm(p.Table))
			}

			db = open()
			if got.refresh, err = db.Refresh("t"); err != nil {
				t.Fatalf("Refresh: %v", err)
			}

			db = open()
			if err := os.Remove(filepath.Join(dir, c.victim)); err != nil {
				t.Fatal(err)
			}
			got.deleted, err = db.Refresh("t")
			got.deletedErr = errText(err)
			_, err = db.Refresh("t")
			got.deletedAgain = errText(err)

			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("surface mismatch\n got: %#v\nwant: %#v", got, c.want)
			}
		})
	}
}

// rawTable returns the lone segment of a table over one whole file — where
// a single file's adaptive structures live — and the table itself
// otherwise, for tests that inspect a plain file's structures.
func (db *DB) rawTable(name string) (interface{ RowCount() int64 }, error) {
	t, err := db.lookupRaw(name)
	if err != nil {
		return nil, err
	}
	if segs := t.Found(); len(segs) == 1 && t.PartitionBytes() == 0 {
		return segs[0], nil
	}
	return t, nil
}

// TestShowTablesReadsFilesOutsideCatalogLock: SHOW TABLES on a partitioned
// table no query has scanned yet reads the file to find its partitions.
// That read must not happen under the catalog lock, or every DDL statement
// waits on file I/O. The open hook stalls the read until a concurrent
// CREATE EXTERNAL TABLE of another name has returned; the rows must still
// report the true partition count.
func TestShowTablesReadsFilesOutsideCatalogLock(t *testing.T) {
	dir := t.TempDir()
	big, other := filepath.Join(dir, "big.csv"), filepath.Join(dir, "other.csv")
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "%05d,n%05d\n", i, i)
	}
	for _, p := range []string{big, other} {
		if err := os.WriteFile(p, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Exec(nil, fmt.Sprintf("CREATE EXTERNAL TABLE t (id int, name text) USING raw LOCATION '%s' WITH (partition_bytes = 1000)", big)); err != nil {
		t.Fatal(err)
	}

	created := make(chan error, 1)
	var once sync.Once
	var stalled bool
	rawfile.SetOpenHook(func(path string, f rawfile.File) rawfile.File {
		if path == big {
			once.Do(func() {
				go func() {
					created <- db.Exec(nil, fmt.Sprintf("CREATE EXTERNAL TABLE u (id int, name text) USING raw LOCATION '%s'", other))
				}()
				select {
				case err := <-created:
					created <- err
				case <-time.After(5 * time.Second):
					stalled = true
				}
			})
		}
		return f
	})
	defer rawfile.SetOpenHook(nil)

	res, err := db.Query("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if stalled {
		t.Fatal("CREATE EXTERNAL TABLE waited on SHOW TABLES reading a raw file under the catalog lock")
	}
	want := fmt.Sprint([][]any{{"t", "in-situ", big, int64(2), int64(3)}})
	if got := fmt.Sprint(res.Rows); got != want {
		t.Fatalf("SHOW TABLES = %s, want %s", got, want)
	}
}
