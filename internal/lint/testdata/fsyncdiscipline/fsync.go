// Package fsyncfix exercises the fsyncdiscipline contract from DESIGN
// §11: a temp file must be fsynced before the rename that publishes
// it and the directory fsynced after.
package fsyncfix

import (
	"os"
	"path/filepath"
)

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
