package store

import (
	"fmt"
	"os"
)

// fsyncFile is an indirection over (*os.File).Sync so tests can fail or
// observe a sync (compare FailAfterWriter). Production code never
// replaces it.
var fsyncFile = (*os.File).Sync

// SyncDir fsyncs a directory, making the renames, creates and removes
// inside it durable. A rename alone moves bytes safely, but the new
// directory entry lives in the directory's own metadata — without this
// sync a power loss can forget the rename even though the file's
// contents were fsync'd, leaving the old name (or nothing) behind.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: opening dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := fsyncFile(d); err != nil {
		return fmt.Errorf("store: syncing dir %s: %w", dir, err)
	}
	return nil
}
