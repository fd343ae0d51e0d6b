// Seqdb is a command-line front end to the seqrep sequence database:
// generate workloads, ingest sequences, inspect their function
// representations, and run generalized approximate queries.
//
// Usage:
//
//	seqdb generate -kind fever -out fever.csv
//	seqdb ingest   -db ./data -id patient7 -in fever.csv
//	seqdb ingestdir -db ./data -dir ./csvs
//	seqdb list     -db ./data
//	seqdb segments -db ./data -id patient7
//	seqdb query    -db ./data -pattern "U+F*D"
//	seqdb query    -db ./data -peaks 2 -tol 1
//	seqdb query    -db ./data -interval 135 -eps 2
//	seqdb query    -db ./data -q 'EXPLAIN MATCH DISTANCE LIKE ecg1 METRIC l2 EPS 3'
//	seqdb query    -db ./data -q 'MATCH DISTANCE LIKE ecg1 TOP 5 BY DISTANCE' -timeout 2s
//	seqdb query    -db ./data -pattern "U+F*D" -limit 10
//	seqdb stats    -db ./data
//
// -db names a data directory (segments/ + wal/, see docs/STORAGE.md),
// created on first ingest. Scalar parameters (-epsilon, -delta) apply
// when the database is created and are persisted with it: every writing
// command ends with a checkpoint, whose manifest carries them.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "generate":
		err = cmdGenerate(args)
	case "ingest":
		err = cmdIngest(args)
	case "ingestdir":
		err = cmdIngestDir(args)
	case "list":
		err = cmdList(args)
	case "segments":
		err = cmdSegments(args)
	case "query":
		err = cmdQuery(args)
	case "remove":
		err = cmdRemove(args)
	case "export":
		err = cmdExport(args)
	case "stats":
		err = cmdStats(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "seqdb: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "seqdb: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `seqdb — sequence database on approximate representations

commands:
  generate  -kind fever|three|ecg|seismic|stock -out FILE [-samples N] [-seed N]
  ingest    -db FILE -id NAME -in FILE [-epsilon E] [-delta D]
  ingestdir -db FILE -dir DIR [-epsilon E] [-delta D] [-workers N]
  list      -db FILE
  segments  -db FILE -id NAME
  query     -db FILE [-q STMT | -pattern P | -peaks K [-tol T] | -interval N [-eps E]]
            [-limit N] [-timeout DUR]   (bounded/cancellable; statements also take LIMIT / TOP n BY DISTANCE)
  remove    -db FILE -id NAME
  export    -db FILE -id NAME -out FILE   (reconstructed from the representation)
  stats     -db FILE`)
}

// newFlagSet builds a flag set that prints its own errors.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return fs
}
