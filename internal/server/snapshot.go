package server

import "seqrep"

// Snapshotter persists the served database for the /v1/snapshot/save
// endpoint and the graceful-shutdown save. Implementations must be safe
// for concurrent use with serving traffic: Save runs against a live,
// mutating database, and a failed Save must leave the previously
// persisted state intact.
type Snapshotter interface {
	// Save persists everything db has acknowledged so far.
	Save(db *seqrep.DB) error
}

// DirSnapshotter adapts a durable data-dir database (seqrep.OpenDir) to
// the Snapshotter surface: Save runs a checkpoint — flush the records
// dirtied since the last one into a new segment, then truncate the
// write-ahead log — so /v1/snapshot/save and the graceful-shutdown save
// also reclaim the log. There is no load counterpart: durable state
// recovers at boot.
type DirSnapshotter struct {
	// Dir is the data directory (segments/ + wal/).
	Dir string
	// Config supplies the code components when opening; scalar
	// parameters come from the directory's manifest.
	Config seqrep.Config
}

// Open recovers (or creates) the durable database — cmd/seqserved's boot
// path.
func (d *DirSnapshotter) Open() (*seqrep.DB, error) {
	return seqrep.OpenDir(d.Dir, d.Config)
}

// Save implements Snapshotter by checkpointing.
func (d *DirSnapshotter) Save(db *seqrep.DB) error {
	return db.Checkpoint()
}
