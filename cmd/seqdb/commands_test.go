package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seqrep"
)

// withDir runs the test from a temp directory so command outputs land in
// isolated scratch space.
func withDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	return dir
}

func TestGenerateAndIngestFlow(t *testing.T) {
	dir := withDir(t)
	csvPath := filepath.Join(dir, "fever.csv")
	dbPath := filepath.Join(dir, "test.db")

	if err := cmdGenerate([]string{"-kind", "fever", "-out", csvPath}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(csvPath); err != nil {
		t.Fatal(err)
	}
	if err := cmdIngest([]string{"-db", dbPath, "-id", "f1", "-in", csvPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdList([]string{"-db", dbPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSegments([]string{"-db", dbPath, "-id", "f1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats([]string{"-db", dbPath}); err != nil {
		t.Fatal(err)
	}
	// All query forms.
	for _, args := range [][]string{
		{"-db", dbPath, "-pattern", "[FD]*(U+F*D[FD]*){2}(U+F*)?"},
		{"-db", dbPath, "-search", "U+F*D"},
		{"-db", dbPath, "-peaks", "2"},
		{"-db", dbPath, "-interval", "8", "-eps", "1"},
		{"-db", dbPath, "-q", "MATCH PEAKS 2"},
		{"-db", dbPath, "-q", `FIND PATTERN "U+F*D"`},
	} {
		if err := cmdQuery(args); err != nil {
			t.Errorf("query %v: %v", args, err)
		}
	}
}

// TestQueryCommand runs every query form of `seqdb query`: the -q
// statement and the shortcut flags, which state the same statements and
// so obey -limit and -timeout alike.
func TestQueryCommand(t *testing.T) {
	dir := withDir(t)
	csvPath := filepath.Join(dir, "fever.csv")
	dbPath := filepath.Join(dir, "test.db")
	if err := cmdGenerate([]string{"-kind", "fever", "-out", csvPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdIngest([]string{"-db", dbPath, "-id", "f1", "-in", csvPath}); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		args    []string
		wantErr string // "" = succeeds
	}{
		{[]string{"-pattern", `U"F*D`}, ""}, // stated directly: a quote needs no escaping into the language
		{[]string{"-pattern", "[FD]*(U+F*D[FD]*){2}(U+F*)?", "-limit", "1"}, ""},
		{[]string{"-search", "U+F*D", "-limit", "2"}, ""},
		{[]string{"-peaks", "2", "-tol", "1"}, ""},
		{[]string{"-interval", "8", "-eps", "1"}, ""},
		{[]string{"-q", "EXPLAIN MATCH PEAKS 2 LIMIT 1"}, ""},
		{[]string{"-search", "U+F*D", "-timeout", "1ns"}, "timed out"},
		{[]string{"-q", `FIND PATTERN "U+F*D"`, "-timeout", "1ns"}, "timed out"},
	} {
		err := cmdQuery(append([]string{"-db", dbPath}, r.args...))
		switch {
		case r.wantErr == "" && err != nil:
			t.Errorf("query %v: %v", r.args, err)
		case r.wantErr != "" && (err == nil || !strings.Contains(err.Error(), r.wantErr)):
			t.Errorf("query %v: err = %v, want one naming %q", r.args, err, r.wantErr)
		}
	}
}

func TestGenerateKinds(t *testing.T) {
	dir := withDir(t)
	for _, kind := range []string{"fever", "three", "ecg", "seismic", "stock"} {
		out := filepath.Join(dir, kind+".csv")
		if err := cmdGenerate([]string{"-kind", kind, "-out", out, "-seed", "5"}); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
	if err := cmdGenerate([]string{"-kind", "bogus", "-out", filepath.Join(dir, "x.csv")}); err == nil {
		t.Error("bogus kind accepted")
	}
	if err := cmdGenerate([]string{"-kind", "fever"}); err == nil {
		t.Error("missing -out accepted")
	}
}

func TestCommandValidation(t *testing.T) {
	dir := withDir(t)
	dbPath := filepath.Join(dir, "x.db")
	if err := cmdIngest([]string{"-db", dbPath}); err == nil {
		t.Error("ingest without id/in accepted")
	}
	if err := cmdList([]string{}); err == nil {
		t.Error("list without db accepted")
	}
	if err := cmdSegments([]string{"-db", dbPath}); err == nil {
		t.Error("segments without id accepted")
	}
	if err := cmdStats([]string{}); err == nil {
		t.Error("stats without db accepted")
	}
	if err := cmdQuery([]string{"-db", dbPath}); err == nil {
		t.Error("query without any predicate accepted")
	}
	if err := cmdQuery([]string{"-db", dbPath, "-q", "bogus"}); err == nil {
		t.Error("bad query-language statement accepted")
	}
	// A read command pointed at a path that does not exist (a typo'd -db)
	// reports it and leaves nothing behind.
	err := cmdList([]string{"-db", dbPath})
	if err == nil || !strings.Contains(err.Error(), "no database at "+dbPath) {
		t.Errorf("list on a missing directory: err = %v", err)
	}
	if _, err := os.Stat(dbPath); !os.IsNotExist(err) {
		t.Errorf("read commands created %s (stat err = %v)", dbPath, err)
	}
}

func TestSegmentsUnknownID(t *testing.T) {
	dir := withDir(t)
	csvPath := filepath.Join(dir, "f.csv")
	dbPath := filepath.Join(dir, "d.db")
	if err := cmdGenerate([]string{"-kind", "fever", "-out", csvPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdIngest([]string{"-db", dbPath, "-id", "f", "-in", csvPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSegments([]string{"-db", dbPath, "-id", "ghost"}); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	dir := withDir(t)
	path := filepath.Join(dir, "rt.csv")
	s, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 25})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeCSV(path, s); err != nil {
		t.Fatal(err)
	}
	back, err := readCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(s) {
		t.Fatalf("round trip: %d vs %d samples", len(back), len(s))
	}
	for i := range s {
		if back[i] != s[i] {
			t.Fatalf("sample %d: %v vs %v", i, back[i], s[i])
		}
	}
}

func TestReadCSVSingleColumn(t *testing.T) {
	dir := withDir(t)
	path := filepath.Join(dir, "single.csv")
	if err := os.WriteFile(path, []byte("1.5\n2.5\n3.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := readCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 || s[1].T != 1 || s[1].V != 2.5 {
		t.Errorf("single column: %v", s)
	}
}

func TestReadCSVErrors(t *testing.T) {
	dir := withDir(t)
	cases := map[string]string{
		"bad-number.csv": "1,notanumber\n",
		"bad-time.csv":   "zzz,1\n",
		"bad-cols.csv":   "1,2,3\n",
		"bad-single.csv": "abc\n",
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readCSV(path); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := readCSV(filepath.Join(dir, "missing.csv")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRemoveAndExport(t *testing.T) {
	dir := withDir(t)
	csvPath := filepath.Join(dir, "f.csv")
	dbPath := filepath.Join(dir, "d.db")
	outPath := filepath.Join(dir, "export.csv")
	if err := cmdGenerate([]string{"-kind", "fever", "-out", csvPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdIngest([]string{"-db", dbPath, "-id", "f", "-in", csvPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdExport([]string{"-db", dbPath, "-id", "f", "-out", outPath}); err != nil {
		t.Fatal(err)
	}
	back, err := readCSV(outPath)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := readCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("export %d samples, original %d", len(back), len(orig))
	}
	// Reconstruction stays within the breaking tolerance.
	for i := range orig {
		d := back[i].V - orig[i].V
		if d < 0 {
			d = -d
		}
		if d > 0.5+1e-9 {
			t.Errorf("sample %d deviates %g from original", i, d)
		}
	}
	if err := cmdRemove([]string{"-db", dbPath, "-id", "f"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRemove([]string{"-db", dbPath, "-id", "f"}); err == nil {
		t.Error("double remove accepted")
	}
	if err := cmdExport([]string{"-db", dbPath, "-id", "f", "-out", outPath}); err == nil {
		t.Error("export of removed id accepted")
	}
	if err := cmdRemove([]string{"-db", dbPath}); err == nil {
		t.Error("remove without id accepted")
	}
	if err := cmdExport([]string{"-db", dbPath}); err == nil {
		t.Error("export without id/out accepted")
	}
}

func TestIngestDuplicateID(t *testing.T) {
	dir := withDir(t)
	csvPath := filepath.Join(dir, "f.csv")
	dbPath := filepath.Join(dir, "d.db")
	if err := cmdGenerate([]string{"-kind", "fever", "-out", csvPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdIngest([]string{"-db", dbPath, "-id", "f", "-in", csvPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdIngest([]string{"-db", dbPath, "-id", "f", "-in", csvPath}); err == nil {
		t.Error("duplicate id accepted")
	}
}

func TestIngestDir(t *testing.T) {
	dir := withDir(t)
	csvDir := filepath.Join(dir, "csvs")
	if err := os.Mkdir(csvDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, kind := range []string{"fever", "three", "seismic"} {
		out := filepath.Join(csvDir, kind+".csv")
		if err := cmdGenerate([]string{"-kind", kind, "-out", out, "-seed", "3"}); err != nil {
			t.Fatalf("generate %d: %v", i, err)
		}
	}
	dbPath := filepath.Join(dir, "d.db")
	if err := cmdIngestDir([]string{"-db", dbPath, "-dir", csvDir, "-workers", "2"}); err != nil {
		t.Fatal(err)
	}
	db, err := seqrep.OpenDir(dbPath, seqrep.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 3 {
		t.Errorf("ingested %d sequences, want 3", db.Len())
	}
	if _, ok := db.Record("fever"); !ok {
		t.Error("sequence id not derived from file name")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// A second run fails on duplicates but leaves the database intact.
	if err := cmdIngestDir([]string{"-db", dbPath, "-dir", csvDir}); err == nil {
		t.Error("duplicate batch accepted")
	}
	if err := cmdIngestDir([]string{"-db", dbPath}); err == nil {
		t.Error("missing -dir accepted")
	}
	if err := cmdIngestDir([]string{"-db", dbPath, "-dir", dir}); err == nil {
		t.Error("directory without CSVs accepted")
	}
}

func TestOpenDBRejectsCorrupt(t *testing.T) {
	dir := withDir(t)
	bad := filepath.Join(dir, "corrupt.db")
	if err := os.WriteFile(bad, []byte("not a database"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdList([]string{"-db", bad}); err == nil {
		t.Error("a regular file accepted as a data directory")
	}
}

// TestIngestEpsilonCarriedByManifest: a writing command ends with a
// checkpoint, so the parameters a database was created under travel in
// its manifest — a later command (a second process, as far as the
// directory can tell) that passes no -epsilon sees the record, under the
// same segmentation, without replaying anything.
func TestIngestEpsilonCarriedByManifest(t *testing.T) {
	dir := withDir(t)
	csvPath := filepath.Join(dir, "ecg.csv")
	dbPath := filepath.Join(dir, "data")
	if err := cmdGenerate([]string{"-kind", "ecg", "-out", csvPath, "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdIngest([]string{"-db", dbPath, "-id", "e1", "-in", csvPath, "-epsilon", "0.1"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSegments([]string{"-db", dbPath, "-id", "e1"}); err != nil {
		t.Fatal(err)
	}

	s, err := readCSV(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	segmentsUnder := func(epsilon float64) int {
		mem, err := seqrep.New(seqrep.Config{Epsilon: epsilon})
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Ingest("e1", s); err != nil {
			t.Fatal(err)
		}
		rec, _ := mem.Record("e1")
		return rec.NumSegments()
	}
	fine, coarse := segmentsUnder(0.1), segmentsUnder(0)
	if fine == coarse {
		t.Fatalf("precondition: ε=0.1 and the default both give %d segments", fine)
	}

	db, err := seqrep.OpenDir(dbPath, seqrep.Config{}) // no -epsilon
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := db.Config().Epsilon; got != 0.1 {
		t.Errorf("reopened ε = %g, want the 0.1 the database was created under", got)
	}
	if r := db.Recovery(); r.Replayed != 0 {
		t.Errorf("reopen replayed %d log records; ingest must end checkpointed", r.Replayed)
	}
	rec, ok := db.Record("e1")
	if !ok {
		t.Fatal("record invisible to a plain reopen")
	}
	if rec.NumSegments() != fine {
		t.Errorf("reopened record has %d segments, want the %d of ε=0.1 (default gives %d)", rec.NumSegments(), fine, coarse)
	}
}
