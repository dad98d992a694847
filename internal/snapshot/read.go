package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"os"
	"unsafe"

	"repro/internal/footprint"
	"repro/internal/linuxapi"
)

// hostLittleEndian gates the zero-copy word views: on a big-endian host
// every multi-byte read falls back to explicit little-endian decoding.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// u64view reinterprets b as a []uint64 without copying when the host is
// little-endian and b is 8-aligned (sections are written 8-aligned and
// heap buffers such as os.ReadFile's start 8-aligned, so this holds for
// opened files; crafted layouts fall back to a copy).
func u64view(b []byte) ([]uint64, bool) {
	if !hostLittleEndian {
		return nil, false
	}
	if len(b) == 0 {
		return nil, true
	}
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8), true
}

// reader is a bounds-checked cursor over one section. Every overrun is
// ErrTruncated: with the checksum already verified it means a malformed
// writer, and the caller must fail closed either way.
type reader struct {
	b   []byte
	off int
}

func (r *reader) need(n int) ([]byte, error) {
	if n < 0 || n > len(r.b)-r.off {
		return nil, fmt.Errorf("%w: section cursor overrun", ErrTruncated)
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s, nil
}

func (r *reader) pad8() error {
	_, err := r.need((8 - r.off%8) % 8)
	return err
}

func (r *reader) u32() (uint32, error) {
	s, err := r.need(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(s), nil
}

func (r *reader) u32s(n int) ([]uint32, error) {
	if n < 0 || n > (len(r.b)-r.off)/4 {
		return nil, fmt.Errorf("%w: section cursor overrun", ErrTruncated)
	}
	s, err := r.need(4 * n)
	if err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(s[4*i:])
	}
	return out, nil
}

// u64s returns n words, aliasing the underlying buffer when possible.
func (r *reader) u64s(n int) ([]uint64, error) {
	if n < 0 || n > (len(r.b)-r.off)/8 {
		return nil, fmt.Errorf("%w: section cursor overrun", ErrTruncated)
	}
	s, err := r.need(8 * n)
	if err != nil {
		return nil, err
	}
	if v, ok := u64view(s); ok {
		return v, nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(s[8*i:])
	}
	return out, nil
}

func (r *reader) f64s(n int) ([]float64, error) {
	w, err := r.u64s(n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i, v := range w {
		out[i] = math.Float64frombits(v)
	}
	return out, nil
}

// Decode validates and parses snapshot bytes. Validation is strict and
// ordered — magic, format version, analysis version, declared size,
// SHA-256 — so each corruption class maps to its typed error, and no
// content is interpreted before the checksum passes. Every section is
// then checked against the file's own API IDs, and only a file that
// passes all of it touches the process intern table: a rejected file
// leaves no trace. Bitsets are remapped into the process intern table;
// when the file's API table is an identity prefix of the process table
// (the common case), footprint words alias data instead of being
// copied, so the caller must not modify data afterwards.
func Decode(data []byte) (*Data, error) {
	le := binary.LittleEndian
	if len(data) < headerSize {
		return nil, fmt.Errorf("%w: %d bytes is smaller than the %d-byte header",
			ErrTruncated, len(data), headerSize)
	}
	if string(data[offMagic:offMagic+8]) != Magic {
		return nil, ErrBadMagic
	}
	if v := le.Uint32(data[offFormat:]); v != FormatVersion {
		return nil, fmt.Errorf("%w: file format %d, reader supports %d", ErrVersion, v, FormatVersion)
	}
	if v := le.Uint32(data[offAnalysis:]); v != uint32(footprint.AnalysisVersion) {
		return nil, fmt.Errorf("%w: file analysis version %d, this build uses %d",
			ErrAnalysisVersion, v, footprint.AnalysisVersion)
	}
	if sz := le.Uint64(data[offFileSize:]); sz != uint64(len(data)) {
		return nil, fmt.Errorf("%w: header declares %d bytes, have %d", ErrTruncated, sz, len(data))
	}
	// The checksum covers the whole file with its own field zeroed; hash
	// around the field so Decode never writes to data.
	h := sha256.New()
	h.Write(data[:offChecksum])
	var zero [checksumSize]byte
	h.Write(zero[:])
	h.Write(data[offChecksum+checksumSize:])
	if !bytes.Equal(h.Sum(nil), data[offChecksum:offChecksum+checksumSize]) {
		return nil, ErrChecksum
	}

	tableOff := le.Uint64(data[offSecTable:])
	count := int(le.Uint32(data[offSecCount:]))
	const entrySize = 24
	// Compare against the room left after tableOff, so an offset near
	// 2^64 cannot wrap the sum back into bounds.
	if count < 0 || count > 1<<16 || tableOff < headerSize || tableOff > uint64(len(data)) ||
		uint64(count)*entrySize > uint64(len(data))-tableOff {
		return nil, fmt.Errorf("%w: bad section table", ErrCorrupt)
	}
	secs := make(map[uint32][]byte, count)
	for i := 0; i < count; i++ {
		e := data[tableOff+uint64(i)*entrySize:]
		id := le.Uint32(e)
		off := le.Uint64(e[8:])
		n := le.Uint64(e[16:])
		if off < headerSize || off+n < off || off+n > uint64(len(data)) {
			return nil, fmt.Errorf("%w: section %d out of bounds", ErrCorrupt, id)
		}
		secs[id] = data[off : off+n]
	}
	sec := func(id uint32) ([]byte, error) {
		s, ok := secs[id]
		if !ok {
			return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
		}
		return s, nil
	}

	blob, err := sec(secStrings)
	if err != nil {
		return nil, err
	}
	str := func(off, n uint32) (string, error) {
		end := uint64(off) + uint64(n)
		if end > uint64(len(blob)) {
			return "", fmt.Errorf("%w: string ref out of bounds", ErrCorrupt)
		}
		return string(blob[off:end]), nil
	}

	// API table, in file IDs. It is interned only after the whole file
	// has validated, below.
	apiRaw, err := sec(secAPIs)
	if err != nil {
		return nil, err
	}
	ar := &reader{b: apiRaw}
	nAPI, err := ar.u32()
	if err != nil {
		return nil, err
	}
	kinds, err := ar.u32s(int(nAPI))
	if err != nil {
		return nil, err
	}
	nameRefs, err := ar.u32s(2 * int(nAPI))
	if err != nil {
		return nil, err
	}
	fileAPIs := make([]linuxapi.API, nAPI)
	for i := range fileAPIs {
		if kinds[i] > uint32(linuxapi.KindLibcSym) { // the last kind
			return nil, fmt.Errorf("%w: api kind %d out of range", ErrCorrupt, kinds[i])
		}
		name, err := str(nameRefs[2*i], nameRefs[2*i+1])
		if err != nil {
			return nil, err
		}
		fileAPIs[i] = linuxapi.API{Kind: linuxapi.Kind(kinds[i]), Name: name}
	}

	pkgRaw, err := sec(secPackages)
	if err != nil {
		return nil, err
	}
	pr := &reader{b: pkgRaw}
	nPkg, err := pr.u32()
	if err != nil {
		return nil, err
	}
	pkgNameRefs, err := pr.u32s(2 * int(nPkg))
	if err != nil {
		return nil, err
	}
	pkgVerRefs, err := pr.u32s(2 * int(nPkg))
	if err != nil {
		return nil, err
	}
	if err := pr.pad8(); err != nil {
		return nil, err
	}
	installs, err := pr.u64s(int(nPkg))
	if err != nil {
		return nil, err
	}
	depStart, err := pr.u32s(int(nPkg) + 1)
	if err != nil {
		return nil, err
	}
	fpStart, err := pr.u32s(int(nPkg) + 1)
	if err != nil {
		return nil, err
	}
	dirStart, err := pr.u32s(int(nPkg) + 1)
	if err != nil {
		return nil, err
	}

	depRaw, err := sec(secDeps)
	if err != nil {
		return nil, err
	}
	dr := &reader{b: depRaw}
	nDep, err := dr.u32()
	if err != nil {
		return nil, err
	}
	depRefs, err := dr.u32s(2 * int(nDep))
	if err != nil {
		return nil, err
	}

	fpWords, err := sectionWords(secs, secFootprint)
	if err != nil {
		return nil, err
	}
	dirWords, err := sectionWords(secs, secDirect)
	if err != nil {
		return nil, err
	}
	if err := checkPrefix(depStart, uint32(nDep), "deps"); err != nil {
		return nil, err
	}
	if err := checkPrefix(fpStart, uint32(len(fpWords)), "footprint words"); err != nil {
		return nil, err
	}
	if err := checkPrefix(dirStart, uint32(len(dirWords)), "direct words"); err != nil {
		return nil, err
	}

	pkgs := make([]Package, nPkg)
	for i := range pkgs {
		p := &pkgs[i]
		if p.Name, err = str(pkgNameRefs[2*i], pkgNameRefs[2*i+1]); err != nil {
			return nil, err
		}
		if p.Version, err = str(pkgVerRefs[2*i], pkgVerRefs[2*i+1]); err != nil {
			return nil, err
		}
		p.Installs = int64(installs[i])
		if n := depStart[i+1] - depStart[i]; n > 0 {
			p.Depends = make([]string, 0, n)
			for j := depStart[i]; j < depStart[i+1]; j++ {
				dep, err := str(depRefs[2*j], depRefs[2*j+1])
				if err != nil {
					return nil, err
				}
				p.Depends = append(p.Depends, dep)
			}
		}
		if !bitsBelow(fpWords[fpStart[i]:fpStart[i+1]], nAPI) ||
			!bitsBelow(dirWords[dirStart[i]:dirStart[i+1]], nAPI) {
			return nil, fmt.Errorf("%w: footprint bit beyond api table", ErrCorrupt)
		}
	}

	metRaw, err := sec(secMetrics)
	if err != nil {
		return nil, err
	}
	mr := &reader{b: metRaw}
	nMet, err := mr.u32()
	if err != nil {
		return nil, err
	}
	if nMet != nAPI {
		return nil, fmt.Errorf("%w: metrics table size %d != api table size %d", ErrCorrupt, nMet, nAPI)
	}
	if err := mr.pad8(); err != nil {
		return nil, err
	}
	have, err := mr.u64s((int(nMet) + 63) / 64)
	if err != nil {
		return nil, err
	}
	impCol, err := mr.f64s(int(nMet))
	if err != nil {
		return nil, err
	}
	unwCol, err := mr.f64s(int(nMet))
	if err != nil {
		return nil, err
	}
	importance := make(map[linuxapi.API]float64)
	unweighted := make(map[linuxapi.API]float64)
	for wi, w := range have {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			idx := wi*64 + bit
			if idx >= int(nMet) {
				return nil, fmt.Errorf("%w: metrics presence bit out of range", ErrCorrupt)
			}
			importance[fileAPIs[idx]] = impCol[idx]
			unweighted[fileAPIs[idx]] = unwCol[idx]
			w &= w - 1
		}
	}

	pathRaw, err := sec(secPath)
	if err != nil {
		return nil, err
	}
	pathR := &reader{b: pathRaw}
	nPath, err := pathR.u32()
	if err != nil {
		return nil, err
	}
	pathIDs, err := pathR.u32s(int(nPath))
	if err != nil {
		return nil, err
	}
	if err := pathR.pad8(); err != nil {
		return nil, err
	}
	pathImp, err := pathR.f64s(int(nPath))
	if err != nil {
		return nil, err
	}
	pathCom, err := pathR.f64s(int(nPath))
	if err != nil {
		return nil, err
	}
	path := make([]PathPoint, nPath)
	for i := range path {
		if pathIDs[i] >= nAPI {
			return nil, fmt.Errorf("%w: path api id out of range", ErrCorrupt)
		}
		path[i] = PathPoint{API: fileAPIs[pathIDs[i]], Importance: pathImp[i], Completeness: pathCom[i]}
	}

	metaRaw, err := sec(secMeta)
	if err != nil {
		return nil, err
	}
	var mj metaJSON
	if err := json.Unmarshal(metaRaw, &mj); err != nil {
		return nil, fmt.Errorf("%w: meta section: %v", ErrCorrupt, err)
	}

	// The file is valid: intern its table and build the bitsets, a pass
	// that cannot fail. Identity (file IDs == process IDs) wraps the
	// words in place; otherwise each bit is remapped.
	procIDs := make([]uint32, nAPI)
	identity := true
	for i, a := range fileAPIs {
		procIDs[i] = linuxapi.InternID(a)
		if procIDs[i] != uint32(i) {
			identity = false
		}
	}
	for i := range pkgs {
		pkgs[i].Footprint = decodeBits(fpWords[fpStart[i]:fpStart[i+1]], procIDs, identity)
		pkgs[i].Direct = decodeBits(dirWords[dirStart[i]:dirStart[i+1]], procIDs, identity)
	}

	return &Data{
		Generation:    le.Uint64(data[offGen:]),
		Installations: int64(le.Uint64(data[offInstalls:])),
		Fingerprint:   mj.Fingerprint,
		Meta:          mj.Meta,
		Packages:      pkgs,
		Importance:    importance,
		Unweighted:    unweighted,
		Path:          path,
	}, nil
}

// sectionWords views a whole section as []uint64 (zero-copy when
// aligned).
func sectionWords(secs map[uint32][]byte, id uint32) ([]uint64, error) {
	s, ok := secs[id]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
	}
	if len(s)%8 != 0 {
		return nil, fmt.Errorf("%w: section %d not word-sized", ErrCorrupt, id)
	}
	r := &reader{b: s}
	return r.u64s(len(s) / 8)
}

// checkPrefix validates a prefix-sum index column: starts at 0,
// non-decreasing, ends at total.
func checkPrefix(starts []uint32, total uint32, what string) error {
	if len(starts) == 0 || starts[0] != 0 || starts[len(starts)-1] != total {
		return fmt.Errorf("%w: bad %s index", ErrCorrupt, what)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] < starts[i-1] {
			return fmt.Errorf("%w: bad %s index", ErrCorrupt, what)
		}
	}
	return nil
}

// bitsBelow reports whether every set bit of the word run w lies below
// n, the size of the file's API table.
func bitsBelow(w []uint64, n uint32) bool {
	i := int(n / 64)
	if i >= len(w) {
		return true
	}
	if w[i]>>(n%64) != 0 {
		return false
	}
	for _, x := range w[i+1:] {
		if x != 0 {
			return false
		}
	}
	return true
}

// decodeBits turns a validated file-space word run into a process-space
// bitset: zero-copy wrap under the identity table, rebuilt bit-by-bit
// through procIDs otherwise.
func decodeBits(w []uint64, procIDs []uint32, identity bool) *footprint.BitSet {
	if identity {
		return footprint.FromWords(w)
	}
	nb := footprint.NewBitSet()
	for wi, word := range w {
		for word != 0 {
			nb.AddID(procIDs[wi*64+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	return nb
}

// Open reads the snapshot file at path into the heap and decodes it.
// The returned Data's bitsets may alias the read buffer; the garbage
// collector frees it once nothing references them, and later changes
// to the file do not reach the decoded Data.
func Open(path string) (*Data, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}
