// Queries demonstrates the textual query language (the paper's §7 future
// work): one statement per query type, executed against a small clinical
// database.
package main

import (
	"fmt"
	"log"

	"seqrep"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	db, err := seqrep.New(seqrep.Config{})
	if err != nil {
		return err
	}

	two, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97})
	if err != nil {
		return err
	}
	shiftedPeaks, err := seqrep.GenerateFever(seqrep.FeverOpts{Samples: 97, FirstPeak: 10, SecondPeak: 18})
	if err != nil {
		return err
	}
	three, err := seqrep.GenerateThreePeakFever(97)
	if err != nil {
		return err
	}
	for id, s := range map[string]seqrep.Sequence{
		"ward-a": two, "ward-b": shiftedPeaks, "ward-c": three,
	} {
		if err := db.Ingest(id, s); err != nil {
			return err
		}
	}

	statements := []string{
		`MATCH PEAKS 2`,
		`MATCH PEAKS 2 TOLERANCE 1`,
		`MATCH PATTERN "[FD]*(U+F*D[FD]*){3}(U+F*)?"`,
		`FIND PATTERN "U+F*D"`,
		`MATCH INTERVAL 8 +- 0.5`,
		`MATCH VALUE LIKE ward-a EPS 0.5`,
		`MATCH SHAPE LIKE ward-a HEIGHT 0.25 SPACING 0.2`,
	}
	for _, stmt := range statements {
		res, err := seqrep.ExecQuery(db, stmt)
		if err != nil {
			return fmt.Errorf("%s: %w", stmt, err)
		}
		fmt.Printf("%-50s -> [%s] %v\n", stmt, res.Kind, res.IDs)
	}
	return nil
}
