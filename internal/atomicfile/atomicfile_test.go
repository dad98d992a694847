package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

// TestWriteBytesAtomic checks that both writes land the bytes and that a
// write, landed or failed, leaves no temp file behind the final file.
func TestWriteBytesAtomic(t *testing.T) {
	for _, write := range []func(string, []byte) error{Write, WriteDurable} {
		dir := t.TempDir()
		path := filepath.Join(dir, "study.snap")
		if err := write(path, []byte("hello")); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != "hello" {
			t.Fatalf("read back: %q, %v", got, err)
		}
		// A rename over a non-empty directory fails after the temp file
		// was written.
		blocked := filepath.Join(dir, "blocked")
		if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := write(blocked, []byte("lost")); err == nil {
			t.Fatal("write over a non-empty directory succeeded")
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 2 {
			t.Fatalf("leftover temp files: %v", ents)
		}
	}
}
