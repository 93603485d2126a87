// Package atomicfile makes file writes crash-safe: content is written to a
// sibling temp file, fsynced, and renamed over the destination, so readers
// only ever observe the old complete file or the new complete file — never a
// torn half-write. Model files and training checkpoints use it so a crash
// mid-save cannot corrupt the artifact a resumed run depends on.
package atomicfile

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteBytes atomically replaces path with data. It is WriteFile for callers
// that already hold the full content in memory.
func WriteBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// WriteFile atomically replaces path with the bytes produced by write. The
// data lands in <path>.tmp first, is flushed to stable storage, and is then
// renamed into place; on any error the temp file is removed and the previous
// contents of path are left untouched.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	defer func() {
		if err != nil {
			_ = f.Close() // already failing; the write error wins
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return fmt.Errorf("atomicfile: writing %s: %w", tmp, err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("atomicfile: fsync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("atomicfile: close %s: %w", tmp, err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	// Persist the rename itself. Directory fsync is not supported on every
	// platform/filesystem, so failures here are not fatal: the file content
	// is already safe, only the directory entry may be replayed.
	if dir, derr := os.Open(filepath.Dir(path)); derr == nil {
		dir.Sync()
		_ = dir.Close() // read-only descriptor
	}
	return nil
}
