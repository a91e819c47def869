package store

import (
	"io"
	"os"
	"path/filepath"
)

// WriteAtomic writes a file by streaming into a temp file in the same
// directory, syncing, and renaming it over the destination. A crash at any
// point leaves either the old content or the new content, never a truncated
// mix — this is the primitive every store write (and `compi -state`) goes
// through. The write callback receives the temp file, whose writes go
// through the fileWrite seam; if it returns an error, the destination is
// untouched.
func WriteAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if tmp != "" {
			os.Remove(tmp)
		}
	}()
	if err := write(tempWriter{f}); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	tmp = ""
	return nil
}

// tempWriter routes WriteAtomic's writes through the fileWrite seam.
type tempWriter struct{ f *os.File }

func (w tempWriter) Write(b []byte) (int, error) { return fileWrite(w.f, b) }
