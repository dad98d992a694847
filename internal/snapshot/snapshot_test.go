package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/footprint"
	"repro/internal/linuxapi"
)

func bitset(apis ...linuxapi.API) *footprint.BitSet {
	b := footprint.NewBitSet()
	for _, a := range apis {
		b.AddID(linuxapi.InternID(a))
	}
	return b
}

// testData builds a small but fully-populated snapshot: three packages
// with shared and distinct strings, empty and non-empty bitsets, deps,
// metrics, a path and meta stats.
func testData() *Data {
	read, write, openat := linuxapi.Sys("read"), linuxapi.Sys("write"), linuxapi.Sys("openat")
	ioctlA := linuxapi.Ioctl("TCGETS")
	return &Data{
		Generation:    7,
		Installations: 2935744,
		Fingerprint:   "deadbeefcafef00d",
		Meta: MetaInfo{
			Executables:        42,
			TotalSites:         100,
			UnresolvedSites:    3,
			DirectSyscallExecs: 5,
			DirectSyscallLibs:  2,
			DistinctFootprints: 17,
			UniqueFootprints:   9,
			SkippedFiles:       1,
			SkippedSamples:     []SkippedSample{{Pkg: "pkg-b", Path: "usr/bin/broken", Err: "truncated ELF"}},
			Census:             Census{ELFExec: 30, ELFLib: 10, ELFStatic: 2, Scripts: map[string]int{"sh": 4}, Other: 6},
		},
		Packages: []Package{
			{
				Name: "pkg-a", Version: "1.0-1", Depends: []string{"pkg-b", "libc"},
				Installs: 1000000, Footprint: bitset(read, write, ioctlA), Direct: bitset(read),
			},
			{
				Name: "pkg-b", Version: "2.3", Depends: nil,
				Installs: 500, Footprint: bitset(openat), Direct: footprint.NewBitSet(),
			},
			{
				Name: "empty-pkg", Version: "1.0-1", Depends: []string{"pkg-a"},
				Installs: 0, Footprint: footprint.NewBitSet(), Direct: footprint.NewBitSet(),
			},
		},
		Importance: map[linuxapi.API]float64{
			read: 0.99, write: 0.75, openat: 0.001, ioctlA: 0,
		},
		Unweighted: map[linuxapi.API]float64{
			read: 2.0 / 3.0, write: 1.0 / 3.0, openat: 1.0 / 3.0, ioctlA: 1.0 / 3.0,
		},
		Path: []PathPoint{
			{API: read, Importance: 0.99, Completeness: 0.1},
			{API: write, Importance: 0.75, Completeness: 0.4},
		},
	}
}

func sameData(t *testing.T, want, got *Data) {
	t.Helper()
	if got.Generation != want.Generation || got.Installations != want.Installations ||
		got.Fingerprint != want.Fingerprint {
		t.Fatalf("header fields: got gen=%d installs=%d fp=%q, want gen=%d installs=%d fp=%q",
			got.Generation, got.Installations, got.Fingerprint,
			want.Generation, want.Installations, want.Fingerprint)
	}
	if !reflect.DeepEqual(got.Meta, want.Meta) {
		t.Fatalf("meta mismatch:\n got %+v\nwant %+v", got.Meta, want.Meta)
	}
	if !reflect.DeepEqual(got.Importance, want.Importance) {
		t.Fatalf("importance mismatch:\n got %v\nwant %v", got.Importance, want.Importance)
	}
	if !reflect.DeepEqual(got.Unweighted, want.Unweighted) {
		t.Fatalf("unweighted mismatch:\n got %v\nwant %v", got.Unweighted, want.Unweighted)
	}
	if !reflect.DeepEqual(got.Path, want.Path) {
		t.Fatalf("path mismatch:\n got %v\nwant %v", got.Path, want.Path)
	}
	if len(got.Packages) != len(want.Packages) {
		t.Fatalf("package count: got %d want %d", len(got.Packages), len(want.Packages))
	}
	for i := range want.Packages {
		w, g := &want.Packages[i], &got.Packages[i]
		if g.Name != w.Name || g.Version != w.Version || g.Installs != w.Installs ||
			!reflect.DeepEqual(g.Depends, w.Depends) {
			t.Fatalf("package %d scalar mismatch:\n got %+v\nwant %+v", i, g, w)
		}
		if !reflect.DeepEqual(g.Footprint.SortedIDs(), w.Footprint.SortedIDs()) {
			t.Fatalf("package %s footprint: got %v want %v", w.Name, g.Footprint.SortedIDs(), w.Footprint.SortedIDs())
		}
		if !reflect.DeepEqual(g.Direct.SortedIDs(), w.Direct.SortedIDs()) {
			t.Fatalf("package %s direct: got %v want %v", w.Name, g.Direct.SortedIDs(), w.Direct.SortedIDs())
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := testData()
	raw, err := Encode(d)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sameData(t, d, got)
}

func TestEncodeDeterministic(t *testing.T) {
	d := testData()
	a, err := Encode(d)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	b, err := Encode(d)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodes of the same data differ")
	}
}

func TestWriteOpen(t *testing.T) {
	d := testData()
	raw, err := Encode(d)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	path := filepath.Join(t.TempDir(), "study.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer got.Close()
	sameData(t, d, got)
}

// TestDecodeRemap forces the non-identity path: the file's API table is
// the process table reversed, so every bitset and metric index must be
// remapped back through re-interning.
func TestDecodeRemap(t *testing.T) {
	d := testData()
	proc := linuxapi.InternedAPIs()
	rev := make([]linuxapi.API, len(proc))
	for i, a := range proc {
		rev[len(proc)-1-i] = a
	}
	raw, err := encode(d, rev)
	if err != nil {
		t.Fatalf("encode(reversed table): %v", err)
	}
	got, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sameData(t, d, got)
}

func TestCorruptionMatrix(t *testing.T) {
	d := testData()
	raw, err := Encode(d)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	le := binary.LittleEndian
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"truncated below header", func(b []byte) []byte { return b[:50] }, ErrTruncated},
		{"truncated mid body", func(b []byte) []byte { return b[:headerSize+16] }, ErrTruncated},
		{"truncated by one byte", func(b []byte) []byte { return b[:len(b)-1] }, ErrTruncated},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrBadMagic},
		{"wrong format version", func(b []byte) []byte { le.PutUint32(b[offFormat:], FormatVersion+1); return b }, ErrVersion},
		{"wrong analysis version", func(b []byte) []byte { le.PutUint32(b[offAnalysis:], 999); return b }, ErrAnalysisVersion},
		{"flipped checksum byte", func(b []byte) []byte { b[offChecksum] ^= 0x01; return b }, ErrChecksum},
		{"flipped body byte", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }, ErrChecksum},
		// A section-table offset near 2^64 wraps the bounds sum; the
		// checksum proves integrity, not authorship, so it is re-sealed.
		{"section table offset wraps", func(b []byte) []byte {
			le.PutUint64(b[offSecTable:], math.MaxUint64-9)
			return reseal(b)
		}, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), raw...))
			_, err := Decode(mut)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("Decode(%s): got %v, want %v", tc.name, err, tc.wantErr)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode(%s): %v does not wrap ErrCorrupt", tc.name, err)
			}
		})
	}
}

// patchSection applies fn to section id of the encoded snapshot b, in
// place, and re-seals b so that only the parser judges the change.
func patchSection(t *testing.T, b []byte, id uint32, fn func(sec []byte)) []byte {
	t.Helper()
	le := binary.LittleEndian
	tableOff := le.Uint64(b[offSecTable:])
	for i := uint64(0); i < uint64(le.Uint32(b[offSecCount:])); i++ {
		e := b[tableOff+24*i:]
		if le.Uint32(e) == id {
			off, n := le.Uint64(e[8:]), le.Uint64(e[16:])
			fn(b[off : off+n])
			return reseal(b)
		}
	}
	t.Fatalf("snapshot has no section %d", id)
	return nil
}

// TestRejectedDecodeInternsNothing decodes checksum-valid files whose
// API table names an API this process has never interned, and which a
// later check rejects. The process intern table never shrinks, so a
// rejected file must not add to it; a valid file with the same table
// still interns the new API.
func TestRejectedDecodeInternsNothing(t *testing.T) {
	// The valid decode at the end interns its API, so each run of the
	// test (-count) takes the first name no earlier run has interned.
	var novel linuxapi.API
	for i := 0; ; i++ {
		novel = linuxapi.Pseudo(fmt.Sprintf("/proc/snapshot-test/never-interned-%d", i))
		if _, ok := linuxapi.InternedID(novel); !ok {
			break
		}
	}
	full := append(append([]linuxapi.API(nil), linuxapi.InternedAPIs()...), novel)
	small := []linuxapi.API{
		linuxapi.Sys("read"), linuxapi.Sys("write"), linuxapi.Sys("openat"), linuxapi.Ioctl("TCGETS"), novel,
	}
	cases := []struct {
		name  string
		table []linuxapi.API
		id    uint32
		patch func(sec []byte)
	}{
		{"corrupt meta section", full, secMeta, func(sec []byte) { sec[0] = '!' }},
		// In the 5-entry table, bit 63 of the first footprint word is
		// file ID 63.
		{"footprint bit past the table", small, secFootprint, func(sec []byte) { sec[7] |= 0x80 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := encode(testData(), tc.table)
			if err != nil {
				t.Fatal(err)
			}
			before := linuxapi.InternUniverse()
			if _, err := Decode(patchSection(t, raw, tc.id, tc.patch)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Decode = %v, want ErrCorrupt", err)
			}
			if after := linuxapi.InternUniverse(); after != before {
				t.Errorf("rejected file grew the intern table from %d to %d entries", before, after)
			}
			if _, ok := linuxapi.InternedID(novel); ok {
				t.Errorf("rejected file interned %v", novel)
			}
		})
	}

	raw, err := encode(testData(), full)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(raw); err != nil {
		t.Fatalf("Decode(valid file with a new API) = %v", err)
	}
	if _, ok := linuxapi.InternedID(novel); !ok {
		t.Errorf("valid file did not intern %v", novel)
	}
}

// TestDecodeRejectsFootprintBitAtTableSize builds, on the zero-copy
// identity path, a file in which a package's footprint and direct
// bitsets each set the first ID past the file's API table. Serving
// either would look up a name that does not exist, so Decode must
// reject the file. Encode refuses to write one, so the test patches a
// valid file.
func TestDecodeRejectsFootprintBitAtTableSize(t *testing.T) {
	past := uint32(linuxapi.InternUniverse())
	valid, err := Encode(testData())
	if err != nil {
		t.Fatal(err)
	}
	for _, direct := range []bool{false, true} {
		raw := withBit(t, valid, 1, direct, past)
		if _, err := Decode(raw); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "beyond api table") {
			t.Errorf("Decode(bit %d in a %d-entry table, direct=%v) = %v, want ErrCorrupt",
				past, past, direct, err)
		}
	}
}

// withBit returns a resealed copy of the valid file raw in which
// package pkg's footprint (or direct) bitset also sets bit id. The
// column's section is copied to the end of the file with the package's
// word run grown to reach id, the section table points at the copy,
// and the word offsets of the packages after it move up.
func withBit(t *testing.T, raw []byte, pkg int, direct bool, id uint32) []byte {
	t.Helper()
	le := binary.LittleEndian
	out := append([]byte(nil), raw...)
	entry := func(sec uint32) []byte {
		table := out[le.Uint64(out[offSecTable:]):]
		for i := range int(le.Uint32(out[offSecCount:])) {
			if e := table[24*i : 24*i+24]; le.Uint32(e) == sec {
				return e
			}
		}
		t.Fatalf("no section %d", sec)
		return nil
	}
	col, prefix := entry(secFootprint), 2 // fpStart: second to last prefix array
	if direct {
		col, prefix = entry(secDirect), 1
	}
	pkgs := entry(secPackages)
	pkgOff, pkgLen := le.Uint64(pkgs[8:]), le.Uint64(pkgs[16:])
	n := uint64(le.Uint32(out[pkgOff:])) + 1
	starts := out[pkgOff+pkgLen-uint64(prefix)*4*n : pkgOff+pkgLen-uint64(prefix-1)*4*n]
	begin, end := le.Uint32(starts[4*pkg:]), le.Uint32(starts[4*pkg+4:])
	grow := max(int(begin+id/64+1)-int(end), 0)
	words := slices.Insert(slices.Clone(out[le.Uint64(col[8:]):][:le.Uint64(col[16:])]), int(end)*8, make([]byte, 8*grow)...)
	for i := pkg + 1; i < int(n); i++ {
		le.PutUint32(starts[4*i:], le.Uint32(starts[4*i:])+uint32(grow))
	}
	w := words[8*(begin+id/64):]
	le.PutUint64(w, le.Uint64(w)|1<<(id%64))
	le.PutUint64(col[8:], uint64(len(out)))
	le.PutUint64(col[16:], uint64(len(words)))
	return reseal(append(out, words...))
}

// reseal rewrites b's declared size and SHA-256 so Decode's parser, not
// its integrity checks, judges the content.
func reseal(b []byte) []byte {
	if len(b) < headerSize {
		return b
	}
	binary.LittleEndian.PutUint64(b[offFileSize:], uint64(len(b)))
	clear(b[offChecksum : offChecksum+checksumSize])
	sum := sha256.Sum256(b)
	copy(b[offChecksum:], sum[:])
	return b
}

func TestOpenRejectsCorruptFile(t *testing.T) {
	d := testData()
	raw, err := Encode(d)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	raw[len(raw)-2] ^= 0xff
	path := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Open(corrupt): got %v, want ErrChecksum", err)
	}
}

func TestEncodeRejectsKeySetMismatch(t *testing.T) {
	d := testData()
	delete(d.Unweighted, linuxapi.Sys("read"))
	if _, err := Encode(d); err == nil {
		t.Fatal("Encode accepted mismatched importance/unweighted key sets")
	}
}

// TestEncodeRejectsBitPastTable pins that Encode fails closed on a
// footprint bit its own API table cannot name: such a file would pass
// its checksum and then be rejected by every reader.
func TestEncodeRejectsBitPastTable(t *testing.T) {
	d := testData()
	p := &d.Packages[0]
	p.Footprint = p.Footprint.Clone()
	p.Footprint.AddID(uint32(linuxapi.InternUniverse()) + 43)
	if raw, err := Encode(d); err == nil {
		_, derr := Decode(raw)
		t.Fatalf("Encode accepted a footprint bit past its API table (Decode: %v)", derr)
	}
}
