package snapshot

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/linuxapi"
)

// FuzzDecode feeds Decode arbitrary snapshot bytes. Each input is
// re-sealed first (declared size and SHA-256 rewritten on a copy), or
// no mutation would get past the checksum into the section parser.
// Decode must never panic, every error must wrap ErrCorrupt, the class
// all of the package's typed errors belong to, and a rejected input
// must leave the process intern table as it found it.
func FuzzDecode(f *testing.F) {
	// A file table of just the APIs testData uses keeps the seed small
	// (the default table makes an 89 KB file the engine crawls through).
	small := []linuxapi.API{
		linuxapi.Sys("read"), linuxapi.Sys("write"), linuxapi.Sys("openat"), linuxapi.Ioctl("TCGETS"),
	}
	seed, err := encode(testData(), small)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	wrap := append([]byte(nil), seed...)
	binary.LittleEndian.PutUint64(wrap[offSecTable:], math.MaxUint64-9)
	f.Add(wrap)
	f.Fuzz(func(t *testing.T, data []byte) {
		before := linuxapi.InternUniverse()
		_, err := Decode(reseal(append([]byte(nil), data...)))
		if err == nil {
			return
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Decode error %v is not a typed snapshot error", err)
		}
		if after := linuxapi.InternUniverse(); after != before {
			t.Fatalf("rejected input grew the intern table from %d to %d entries", before, after)
		}
	})
}
