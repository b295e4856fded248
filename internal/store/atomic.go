package store

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic durably writes data to path: the bytes land in a unique
// temp file in the destination directory, are fsynced, and are renamed
// into place, so a reader — in this process or any other — only ever
// observes either the previous complete file or the new complete file. A
// crash mid-write leaves at most a stray temp file, never a truncated
// destination; this is the write discipline every store manifest, every
// compacted store segment, the coordinator journal and every shard artifact
// go through, because a half-written result file read back later is a
// data-corruption bug, not a cache miss.
//
// The containing directory is fsynced after the rename on a best-effort
// basis (some platforms and filesystems reject directory syncs); the
// rename itself is what readers' correctness rests on.
func WriteFileAtomic(path string, data []byte) error {
	return writeAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeAtomic is WriteFileAtomic with the contents streamed by fill.
func writeAtomic(path string, fill func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // best-effort: the rename is already atomic for readers
		d.Close()
	}
	return nil
}
