// Package snapshot defines the versioned binary study-snapshot file: the
// columnar serving state of an analyzed study — the API intern table,
// per-package footprint bitset columns, popcon weights, dependency edges
// and the precomputed importance/completeness metrics — laid out 8-byte
// aligned so a serving replica restores a study with one file read and
// no re-run of the analysis pipeline on every cold start.
//
// The file is self-describing and fails closed: a magic string, a format
// version, the analysis version (footprint.AnalysisVersion — per-binary
// semantics), a publisher-assigned generation, the corpus fingerprint,
// and a SHA-256 checksum over the whole file. Truncated, corrupt or
// version-skewed files are rejected with a typed error wrapping
// ErrCorrupt, so callers fall back to the in-process rebuild path rather
// than ever serving wrong data (the byte-for-byte agreement discipline
// of the compat-tool-agreement study in PAPERS.md).
//
// Layout: a fixed 96-byte header, then 8-aligned sections located by a
// trailing section table. Strings live in one deduplicated blob and are
// referenced by (offset, length); bitsets are raw little-endian uint64
// word runs addressed by per-package prefix sums, so on a little-endian
// host they are served zero-copy straight out of the file bytes. Open
// reads the file into the heap, so a decoded generation lives exactly as
// long as something references it: the garbage collector retires a
// swapped-out generation once its last reader returns, and a file
// changed on disk after Open cannot change what is served.
//
// ID spaces: inside a Data value every bitset is expressed in the
// process intern table (linuxapi.InternID). The file carries its own API
// table; Decode re-interns it and remaps bitset words unless the file
// table is an identity prefix of the process table — which it is
// whenever no dynamic APIs were interned in a different order, the
// common case, since the static region is deterministic across
// processes.
package snapshot

import (
	"errors"
	"fmt"

	"repro/internal/footprint"
	"repro/internal/linuxapi"
)

// Magic opens every snapshot file.
const Magic = "REPROSNP"

// FormatVersion is the layout version written by this package. Readers
// reject any other value: layouts are not forward- or backward-parsed.
const FormatVersion = 1

// headerSize is the fixed header length; sections start 8-aligned after
// it.
const headerSize = 96

// Header byte offsets (little-endian fields).
const (
	offMagic     = 0  // 8 bytes
	offFormat    = 8  // uint32
	offAnalysis  = 12 // uint32
	offFileSize  = 16 // uint64
	offGen       = 24 // uint64
	offInstalls  = 32 // int64
	offSecTable  = 40 // uint64
	offSecCount  = 48 // uint32
	offChecksum  = 56 // 32 bytes, sha256 with this field zeroed
	checksumSize = 32
)

// Section IDs. Unknown sections in a valid file are ignored, so additive
// growth does not need a format bump.
const (
	secStrings   = 1 // deduplicated string blob
	secAPIs      = 2 // API table: kind + name ref per snapshot ID
	secPackages  = 3 // per-package columns (insertion order)
	secDeps      = 4 // dependency edges, string refs
	secFootprint = 5 // footprint bitset words, all packages concatenated
	secDirect    = 6 // direct-usage bitset words
	secMetrics   = 7 // importance/unweighted per API + presence bitmap
	secPath      = 8 // greedy path points
	secMeta      = 9 // MetaInfo JSON
)

// ErrCorrupt is the common sentinel every rejection wraps: a snapshot
// that fails validation for any reason must not be served.
var ErrCorrupt = errors.New("snapshot: invalid snapshot file")

// Typed rejections, each wrapping ErrCorrupt so callers can match the
// specific cause or the class.
var (
	ErrBadMagic        = fmt.Errorf("%w: bad magic", ErrCorrupt)
	ErrVersion         = fmt.Errorf("%w: unsupported format version", ErrCorrupt)
	ErrAnalysisVersion = fmt.Errorf("%w: analysis version mismatch", ErrCorrupt)
	ErrTruncated       = fmt.Errorf("%w: truncated", ErrCorrupt)
	ErrChecksum        = fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
)

// Package is one package's column slice: identity, weight, dependency
// edges, and the two footprint bitsets (in process intern-ID space).
type Package struct {
	Name    string
	Version string
	// Depends lists direct dependency edges by package name; needed at
	// query time because weighted completeness propagates unsupported
	// status through the dependency closure.
	Depends  []string
	Installs int64
	// Footprint is the package's aggregated API footprint; Direct the
	// APIs its own binaries request without a library. Decoded bitsets
	// may alias the decoded file bytes and must be treated read-only.
	Footprint *footprint.BitSet
	Direct    *footprint.BitSet
}

// PathPoint is one step of the stored greedy path (metrics.PathPoint
// minus the derivable 1-based index).
type PathPoint struct {
	API          linuxapi.API
	Importance   float64
	Completeness float64
}

// Census mirrors the file-classification counts of core.FileCensus.
type Census struct {
	ELFExec   int            `json:"elf_exec"`
	ELFLib    int            `json:"elf_lib"`
	ELFStatic int            `json:"elf_static"`
	Scripts   map[string]int `json:"scripts,omitempty"`
	Other     int            `json:"other"`
}

// SkippedSample is one recorded malformed-file witness.
type SkippedSample struct {
	Pkg  string `json:"pkg"`
	Path string `json:"path"`
	Err  string `json:"error"`
}

// MetaInfo carries the pipeline statistics that cannot be recomputed
// from the columns (they census the raw corpus files, which a snapshot
// deliberately does not ship).
type MetaInfo struct {
	Executables        int             `json:"executables"`
	TotalSites         int             `json:"total_sites"`
	UnresolvedSites    int             `json:"unresolved_sites"`
	DirectSyscallExecs int             `json:"direct_syscall_execs"`
	DirectSyscallLibs  int             `json:"direct_syscall_libs"`
	DistinctFootprints int             `json:"distinct_footprints"`
	UniqueFootprints   int             `json:"unique_footprints"`
	SkippedFiles       int             `json:"skipped_files"`
	SkippedSamples     []SkippedSample `json:"skipped_samples,omitempty"`
	Census             Census          `json:"census"`
}

// Data is the decoded (or to-be-encoded) snapshot. All bitsets and API
// references use the process intern table; Encode translates to the
// file's own table and Decode translates back.
type Data struct {
	// Generation is the publisher-assigned snapshot generation; replicas
	// reject pushes that do not advance it.
	Generation uint64
	// Installations is the survey population.
	Installations int64
	// Fingerprint is the corpus identity (repro.Study.Fingerprint). It is
	// stored, not recomputed: the snapshot does not carry file bytes.
	Fingerprint string
	Meta        MetaInfo
	// Packages preserves the repository's insertion order.
	Packages []Package
	// Importance and Unweighted must have identical key sets (both are
	// "every API present in at least one footprint"); Encode enforces it.
	Importance map[linuxapi.API]float64
	Unweighted map[linuxapi.API]float64
	Path       []PathPoint
}

// Close is a no-op that returns nil: Data holds only heap memory, which
// the garbage collector reclaims once the Data is unreachable. It is
// kept for callers that release snapshots explicitly.
func (d *Data) Close() error { return nil }
