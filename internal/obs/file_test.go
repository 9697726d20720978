package obs

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// requireOnly fails unless dir holds exactly the named file with content
// want: a failed write must leave the old file and no temporary file.
func requireOnly(t *testing.T, dir, name string, want []byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
	got, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s = %q, want %q", name, got, want)
	}
}

func TestWriteFileAtomicReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := os.WriteFile(path, []byte("old\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONAtomic(path, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	requireOnly(t, dir, "out.json", []byte("{\n  \"a\": 1\n}\n"))
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Errorf("mode = %v, want 0644", info.Mode().Perm())
	}
}

// TestWriteFileAtomicFailureKeepsOldFile: a write that fails half-way, a
// value encoding/json rejects, and a manifest carrying one all leave the
// previous file byte-identical and no temporary file beside it.
func TestWriteFileAtomicFailureKeepsOldFile(t *testing.T) {
	boom := errors.New("encoder failed half-way")
	cases := []struct {
		name, file string
		write      func(dir string) error
	}{
		{"failing writer", "ckpt", func(dir string) error {
			err := WriteFileAtomic(filepath.Join(dir, "ckpt"), func(w io.Writer) error {
				if _, err := w.Write([]byte("torn")); err != nil {
					return err
				}
				return boom
			})
			if !errors.Is(err, boom) {
				t.Errorf("failing writer: err = %v, want the writer's error", err)
			}
			return err
		}},
		{"NaN value", "out.json", func(dir string) error {
			return WriteJSONAtomic(filepath.Join(dir, "out.json"), map[string]float64{"x": math.NaN()})
		}},
		{"manifest with +Inf metric", ManifestFile, func(dir string) error {
			return Manifest{Tool: "test", Final: map[string]float64{"loss": math.Inf(1)}}.Write(dir)
		}},
	}
	old := []byte("previous good file\n")
	for _, c := range cases {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, c.file), old, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := c.write(dir); err == nil {
			t.Fatalf("%s: write succeeded", c.name)
		}
		requireOnly(t, dir, c.file, old)
	}
}

func TestWriteFileAtomicMissingDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent", "out.json")
	if err := WriteJSONAtomic(path, 1); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
