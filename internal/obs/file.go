package obs

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with what write produces, or leaves it as
// it was. It writes a temporary file in the same directory, syncs and
// closes it, then renames it over path, so a crash or a failed encode
// never leaves a torn file or destroys the previous good one. The
// temporary file is removed on any error.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = f.Chmod(0o644)
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// WriteJSONAtomic stores v at path as indented JSON with a trailing
// newline, through WriteFileAtomic.
func WriteJSONAtomic(path string, v any) error {
	return WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}
