// Package apt models the Debian/Ubuntu packaging layer of the study: a
// package is the smallest granularity of installation (§2), carrying
// executables, shared libraries and scripts, plus dependency edges that the
// weighted-completeness metric propagates unsupported status through
// (§2.2 step 3). The package index uses the Debian control-file format so
// corpora round-trip through the same representation real repositories use.
package apt

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/store"
)

// File is one file shipped by a package.
type File struct {
	// Path is the installed path, e.g. "/usr/bin/foo".
	Path string
	// Data is the file's contents (an ELF image or script text).
	Data []byte
}

// Package is one installable unit.
type Package struct {
	Name    string
	Version string
	Section string
	// Depends lists package names this package requires (we model the
	// resolved dependency graph, not alternation/version constraints).
	Depends []string
	// Files are the package's binaries and scripts.
	Files []File
}

// Repository is a set of packages indexed by name.
type Repository struct {
	byName map[string]*Package
	names  []string // insertion-ordered
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{byName: make(map[string]*Package)}
}

// Add inserts a package; adding a duplicate name is an error.
func (r *Repository) Add(p *Package) error {
	if p.Name == "" {
		return fmt.Errorf("apt: package with empty name")
	}
	if _, dup := r.byName[p.Name]; dup {
		return fmt.Errorf("apt: duplicate package %q", p.Name)
	}
	r.byName[p.Name] = p
	r.names = append(r.names, p.Name)
	return nil
}

// Get returns the named package, or nil.
func (r *Repository) Get(name string) *Package { return r.byName[name] }

// Len returns the number of packages.
func (r *Repository) Len() int { return len(r.names) }

// Names returns package names in insertion order.
func (r *Repository) Names() []string { return append([]string(nil), r.names...) }

// DependencyClosure returns the set of package names required to install
// name (including itself), following Depends edges transitively. Unknown
// dependencies are included by name so callers can detect dangling edges.
func (r *Repository) DependencyClosure(name string) []string {
	return store.Closure([]string{name}, func(n string) []string {
		if p := r.byName[n]; p != nil {
			return p.Depends
		}
		return nil
	})
}

// ReverseDependencies returns the names of packages that directly depend on
// name, sorted.
func (r *Repository) ReverseDependencies(name string) []string {
	var out []string
	for _, n := range r.names {
		for _, d := range r.byName[n].Depends {
			if d == name {
				out = append(out, n)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// WriteIndex serializes the repository's package metadata (not file
// contents) in Debian control-file format, packages in insertion order.
func (r *Repository) WriteIndex(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range r.names {
		p := r.byName[name]
		fmt.Fprintf(bw, "Package: %s\n", p.Name)
		if p.Version != "" {
			fmt.Fprintf(bw, "Version: %s\n", p.Version)
		}
		if p.Section != "" {
			fmt.Fprintf(bw, "Section: %s\n", p.Section)
		}
		if len(p.Depends) > 0 {
			fmt.Fprintf(bw, "Depends: %s\n", strings.Join(p.Depends, ", "))
		}
		if len(p.Files) > 0 {
			paths := make([]string, len(p.Files))
			for i, f := range p.Files {
				paths[i] = f.Path
			}
			fmt.Fprintf(bw, "Files: %s\n", strings.Join(paths, ", "))
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ErrMalformed is wrapped by every error ParseIndex returns for an index
// it rejects: a line that is not a field, a package with no name, or a
// package listed twice.
var ErrMalformed = errors.New("apt: malformed index")

// ParseIndex reads a control-file index produced by WriteIndex (or a plain
// Debian Packages file; unknown fields are ignored). File entries carry
// paths only; contents are attached separately by the corpus loader.
func ParseIndex(rd io.Reader) (*Repository, error) {
	repo := NewRepository()
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur *Package
	lineno := 0
	flush := func() error {
		if cur == nil {
			return nil
		}
		err := repo.Add(cur)
		cur = nil
		if err != nil {
			return fmt.Errorf("%w: line %d: %w", ErrMalformed, lineno, err)
		}
		return nil
	}
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			if err := flush(); err != nil {
				return nil, err
			}
			continue
		}
		if strings.HasPrefix(line, " ") || strings.HasPrefix(line, "\t") {
			continue // continuation lines (long descriptions) are ignored
		}
		key, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("%w: line %d: not a field: %q", ErrMalformed, lineno, line)
		}
		value = strings.TrimSpace(value)
		switch key {
		case "Package":
			if err := flush(); err != nil {
				return nil, err
			}
			cur = &Package{Name: value}
		case "Version":
			if cur != nil {
				cur.Version = value
			}
		case "Section":
			if cur != nil {
				cur.Section = value
			}
		case "Depends":
			if cur != nil {
				cur.Depends = splitList(value)
			}
		case "Files":
			if cur != nil {
				for _, p := range splitList(value) {
					cur.Files = append(cur.Files, File{Path: p})
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return repo, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		// Strip version constraints like "libc6 (>= 2.21)".
		part = strings.TrimSpace(part)
		if i := strings.IndexByte(part, '('); i >= 0 {
			part = strings.TrimSpace(part[:i])
		}
		// Alternation "a | b" resolves to the first alternative.
		if i := strings.IndexByte(part, '|'); i >= 0 {
			part = strings.TrimSpace(part[:i])
		}
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
