package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/footprint"
	"repro/internal/linuxapi"
)

// metaJSON is the secMeta payload: the fingerprint plus the pipeline
// statistics, as deterministic JSON (struct field order; map keys are
// sorted by encoding/json).
type metaJSON struct {
	Fingerprint string   `json:"fingerprint"`
	Meta        MetaInfo `json:"meta"`
}

// stringBlob deduplicates strings into one byte run addressed by
// (offset, length) refs.
type stringBlob struct {
	buf []byte
	idx map[string][2]uint32
}

func (sb *stringBlob) ref(s string) (off, n uint32) {
	if r, ok := sb.idx[s]; ok {
		return r[0], r[1]
	}
	off = uint32(len(sb.buf))
	sb.buf = append(sb.buf, s...)
	sb.idx[s] = [2]uint32{off, uint32(len(s))}
	return off, uint32(len(s))
}

// enc appends little-endian scalars; pad8 keeps 8-byte columns aligned
// so the reader can view them in place.
type enc struct{ b []byte }

func (e *enc) pad8() {
	for len(e.b)%8 != 0 {
		e.b = append(e.b, 0)
	}
}
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) {
	e.u64(math.Float64bits(v))
}

// Encode serializes d into snapshot file bytes, using the process
// intern table as the file's API table. The output is deterministic for
// a given Data and intern state: byte-identical snapshots are how
// replicas prove they serve the same study.
func Encode(d *Data) ([]byte, error) {
	return encode(d, nil)
}

// encode does the work; a non-nil table overrides the file's API table
// (tests pass a permuted table to force the decode-side remap path).
func encode(d *Data, table []linuxapi.API) ([]byte, error) {
	proc := linuxapi.InternedAPIs()
	identity := table == nil
	if identity {
		table = proc
	}
	tableIdx := make(map[linuxapi.API]uint32, len(table))
	for i, a := range table {
		tableIdx[a] = uint32(i)
	}
	// remap[procID] = index in the file table.
	var remap []uint32
	if !identity {
		remap = make([]uint32, len(proc))
		for i, a := range proc {
			t, ok := tableIdx[a]
			if !ok {
				t = ^uint32(0)
			}
			remap[i] = t
		}
	}

	if len(d.Importance) != len(d.Unweighted) {
		return nil, fmt.Errorf("snapshot: importance/unweighted key sets differ (%d vs %d)",
			len(d.Importance), len(d.Unweighted))
	}
	for a := range d.Importance {
		if _, ok := d.Unweighted[a]; !ok {
			return nil, fmt.Errorf("snapshot: api %v has importance but no unweighted count", a)
		}
	}

	blob := &stringBlob{idx: make(map[string][2]uint32)}

	// API table: count, kind column, then (nameOff, nameLen) ref pairs.
	var apiSec enc
	apiSec.u32(uint32(len(table)))
	for _, a := range table {
		apiSec.u32(uint32(a.Kind))
	}
	for _, a := range table {
		off, n := blob.ref(a.Name)
		apiSec.u32(off)
		apiSec.u32(n)
	}

	// Package columns plus the flattened dep-edge and bitset-word runs
	// they prefix-index into.
	var depRefs []uint32 // (off, len) pairs, flattened
	var fpWords, dirWords []uint64
	depStart := make([]uint32, 1, len(d.Packages)+1)
	fpStart := make([]uint32, 1, len(d.Packages)+1)
	dirStart := make([]uint32, 1, len(d.Packages)+1)
	var pkgSec enc
	pkgSec.u32(uint32(len(d.Packages)))
	for i := range d.Packages {
		p := &d.Packages[i]
		off, n := blob.ref(p.Name)
		pkgSec.u32(off)
		pkgSec.u32(n)
	}
	for i := range d.Packages {
		p := &d.Packages[i]
		off, n := blob.ref(p.Version)
		pkgSec.u32(off)
		pkgSec.u32(n)
	}
	pkgSec.pad8()
	for i := range d.Packages {
		pkgSec.u64(uint64(d.Packages[i].Installs))
	}
	for i := range d.Packages {
		p := &d.Packages[i]
		for _, dep := range p.Depends {
			off, n := blob.ref(dep)
			depRefs = append(depRefs, off, n)
		}
		depStart = append(depStart, uint32(len(depRefs)/2))
		w, err := remapWords(p.Footprint, remap, len(table))
		if err != nil {
			return nil, fmt.Errorf("snapshot: package %s footprint: %w", p.Name, err)
		}
		fpWords = append(fpWords, w...)
		fpStart = append(fpStart, uint32(len(fpWords)))
		w, err = remapWords(p.Direct, remap, len(table))
		if err != nil {
			return nil, fmt.Errorf("snapshot: package %s direct set: %w", p.Name, err)
		}
		dirWords = append(dirWords, w...)
		dirStart = append(dirStart, uint32(len(dirWords)))
	}
	for _, v := range depStart {
		pkgSec.u32(v)
	}
	for _, v := range fpStart {
		pkgSec.u32(v)
	}
	for _, v := range dirStart {
		pkgSec.u32(v)
	}

	var depSec enc
	depSec.u32(uint32(len(depRefs) / 2))
	for _, v := range depRefs {
		depSec.u32(v)
	}

	var fpSec, dirSec enc
	for _, w := range fpWords {
		fpSec.u64(w)
	}
	for _, w := range dirWords {
		dirSec.u64(w)
	}

	// Metrics: presence bitmap over file-table indexes, then the two
	// float columns (zero-filled where absent).
	var metSec enc
	metSec.u32(uint32(len(table)))
	metSec.pad8()
	have := make([]uint64, (len(table)+63)/64)
	imp := make([]float64, len(table))
	unw := make([]float64, len(table))
	for a, v := range d.Importance {
		idx, ok := tableIdx[a]
		if !ok {
			return nil, fmt.Errorf("snapshot: importance key %v not in API table", a)
		}
		have[idx/64] |= 1 << (idx % 64)
		imp[idx] = v
		unw[idx] = d.Unweighted[a]
	}
	for _, w := range have {
		metSec.u64(w)
	}
	for _, v := range imp {
		metSec.f64(v)
	}
	for _, v := range unw {
		metSec.f64(v)
	}

	var pathSec enc
	pathSec.u32(uint32(len(d.Path)))
	for _, pt := range d.Path {
		idx, ok := tableIdx[pt.API]
		if !ok {
			return nil, fmt.Errorf("snapshot: path api %v not in API table", pt.API)
		}
		pathSec.u32(idx)
	}
	pathSec.pad8()
	for _, pt := range d.Path {
		pathSec.f64(pt.Importance)
	}
	for _, pt := range d.Path {
		pathSec.f64(pt.Completeness)
	}

	metaBytes, err := json.Marshal(metaJSON{Fingerprint: d.Fingerprint, Meta: d.Meta})
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode meta: %w", err)
	}

	// Assemble: header, 8-aligned sections, trailing section table.
	type secEntry struct {
		id       uint32
		off, len uint64
	}
	var body enc
	var entries []secEntry
	addSec := func(id uint32, payload []byte) {
		body.pad8()
		entries = append(entries, secEntry{id, uint64(headerSize + len(body.b)), uint64(len(payload))})
		body.b = append(body.b, payload...)
	}
	addSec(secStrings, blob.buf)
	addSec(secAPIs, apiSec.b)
	addSec(secPackages, pkgSec.b)
	addSec(secDeps, depSec.b)
	addSec(secFootprint, fpSec.b)
	addSec(secDirect, dirSec.b)
	addSec(secMetrics, metSec.b)
	addSec(secPath, pathSec.b)
	addSec(secMeta, metaBytes)
	body.pad8()
	tableOff := uint64(headerSize + len(body.b))
	for _, e := range entries {
		body.u32(e.id)
		body.u32(0)
		body.u64(e.off)
		body.u64(e.len)
	}

	file := make([]byte, headerSize, headerSize+len(body.b))
	copy(file[offMagic:], Magic)
	le := binary.LittleEndian
	le.PutUint32(file[offFormat:], FormatVersion)
	le.PutUint32(file[offAnalysis:], uint32(footprint.AnalysisVersion))
	le.PutUint64(file[offGen:], d.Generation)
	le.PutUint64(file[offInstalls:], uint64(d.Installations))
	le.PutUint64(file[offSecTable:], tableOff)
	le.PutUint32(file[offSecCount:], uint32(len(entries)))
	file = append(file, body.b...)
	le.PutUint64(file[offFileSize:], uint64(len(file)))
	// Checksum over the whole file with the checksum field zeroed (it
	// still is at this point).
	sum := sha256.Sum256(file)
	copy(file[offChecksum:], sum[:])
	return file, nil
}

// errNotInTable rejects a bit the file's API table cannot name.
var errNotInTable = errors.New("bit not representable in API table")

// remapWords returns the file-space words of b: a trimmed copy under
// the identity mapping (remap nil) into a table of nAPI entries, or a
// rebuilt bitset otherwise.
func remapWords(b *footprint.BitSet, remap []uint32, nAPI int) ([]uint64, error) {
	if b == nil || b.Empty() {
		return nil, nil
	}
	if remap == nil {
		w := b.Words()
		if !bitsBelow(w, uint32(nAPI)) {
			return nil, errNotInTable
		}
		n := len(w)
		for n > 0 && w[n-1] == 0 {
			n--
		}
		out := make([]uint64, n)
		copy(out, w[:n])
		return out, nil
	}
	nb := footprint.NewBitSet()
	var bad bool
	b.ForEach(func(id uint32) {
		if int(id) >= len(remap) || remap[id] == ^uint32(0) {
			bad = true
			return
		}
		nb.AddID(remap[id])
	})
	if bad {
		return nil, errNotInTable
	}
	w := nb.Words()
	n := len(w)
	for n > 0 && w[n-1] == 0 {
		n--
	}
	return w[:n], nil
}
