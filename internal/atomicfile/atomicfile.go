// Package atomicfile holds the one temp-file-then-rename write in the
// tree: a reader, or a process restarted after a crash, finds the old
// complete file or the new complete file, never a torn one.
// WriteDurable also fsyncs the file before the rename, so the rename
// cannot reach the disk before the data, and the directory after it, so
// a write that returned survives a power loss. Write skips both, for
// records whose loss costs only recomputation.
package atomicfile

import (
	"os"
	"path/filepath"
)

// TempPrefix starts the name of every temp file a write creates beside
// its destination. Owners that list their directory at open remove the
// ones a crash left.
const TempPrefix = ".tmp-"

// Hook is a test seam for crash tests, nil in production. When set, it
// is called with the step's name and the destination path before each
// step of a write: "create", "write", "sync", "close", "rename" and
// "syncdir" (Write runs no "sync" or "syncdir").
var Hook func(step, path string)

// Write replaces path with data atomically.
func Write(path string, data []byte) error { return write(path, data, false) }

// WriteDurable replaces path with data atomically, and returns once the
// new contents and the rename are on disk.
func WriteDurable(path string, data []byte) error { return write(path, data, true) }

func write(path string, data []byte, durable bool) error {
	step := func(name string) {
		if Hook != nil {
			Hook(name, path)
		}
	}
	dir := filepath.Dir(path)
	step("create")
	f, err := os.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return err
	}
	step("write")
	_, err = f.Write(data)
	if err == nil && durable {
		step("sync")
		err = f.Sync()
	}
	if err != nil {
		f.Close()
	} else {
		step("close")
		err = f.Close()
	}
	if err == nil {
		step("rename")
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	if !durable {
		return nil
	}
	step("syncdir")
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
