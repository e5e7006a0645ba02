// Package fsyncfix exercises the fsyncdiscipline contract from DESIGN
// §11: a temp file must be fsynced before the rename that publishes
// it and the directory fsynced after, and an ingest handler must reach
// the WAL append before writing its 202 ack.
package fsyncfix

import (
	"net/http"
	"os"
	"path/filepath"
)

// Log is a stand-in WAL: AppendBatch on a vmp/internal/ receiver is
// what the analyzer recognizes as the durability entry point.
type Log struct{}

// AppendBatch appends one batch of frames.
func (l *Log) AppendBatch(parts [][]byte) error { return nil }

// saveBad publishes via os.WriteFile, which never syncs: the data can
// still be in the page cache when the rename lands.
func saveBad(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path) // want fsyncdiscipline "renamed into place without an fsync"
}

// saveNoSync writes through a handle but closes it without Sync.
func saveNoSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path) // want fsyncdiscipline "before its handle is fsynced"
}

// saveNoDir syncs the content but not the directory: the file is
// durable, the rename that made it visible is not.
func saveNoDir(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path) // want fsyncdiscipline "not followed by a directory fsync"
}

// saveGood is the full atomic-replace protocol: write, Sync, Close,
// Rename, then fsync the directory.
func saveGood(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	if err := dir.Sync(); err != nil {
		_ = dir.Close()
		return err
	}
	return dir.Close()
}

// saveGoodHelper leaves the directory fsync to a same-package helper.
func saveGoodHelper(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

func syncDir(path string) error {
	dir, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := dir.Sync(); err != nil {
		_ = dir.Close()
		return err
	}
	return dir.Close()
}

// saveHelperNoSync calls a helper after the rename, but not one that
// fsyncs anything.
func saveHelperNoSync(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil { // want fsyncdiscipline "not followed by a directory fsync"
		return err
	}
	return statDir(filepath.Dir(path))
}

func statDir(path string) error {
	_, err := os.Stat(path)
	return err
}

// handleBad acks before the append: a crash between the two loses a
// batch the client believes durable.
func handleBad(l *Log, w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusAccepted)
	if err := l.AppendBatch(nil); err != nil { // want fsyncdiscipline "after the HTTP 202"
		return
	}
}

// handleBadIndirect reaches the append through a same-package helper;
// the call-graph fixed point carries the fact to the call site.
func handleBadIndirect(l *Log, w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusAccepted)
	if err := persist(l); err != nil { // want fsyncdiscipline "after the HTTP 202"
		return
	}
}

func persist(l *Log) error { return l.AppendBatch(nil) }

// handleGood appends first and acks after.
func handleGood(l *Log, w http.ResponseWriter, r *http.Request) {
	if err := l.AppendBatch(nil); err != nil {
		http.Error(w, "wal append failed", http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusAccepted)
}
