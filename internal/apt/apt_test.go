package apt

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func sampleRepo(t *testing.T) *Repository {
	t.Helper()
	r := NewRepository()
	pkgs := []*Package{
		{Name: "libc6", Version: "2.21-0", Section: "libs",
			Files: []File{{Path: "/lib/x86_64-linux-gnu/libc.so.6"}}},
		{Name: "libfoo1", Version: "1.0", Depends: []string{"libc6"},
			Files: []File{{Path: "/usr/lib/libfoo.so.1"}}},
		{Name: "foo", Version: "1.0", Depends: []string{"libfoo1", "libc6"},
			Files: []File{{Path: "/usr/bin/foo"}, {Path: "/usr/bin/foo-helper"}}},
		{Name: "bar", Version: "2.0", Depends: []string{"libc6"}},
	}
	for _, p := range pkgs {
		if err := r.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRepositoryAddGet(t *testing.T) {
	r := sampleRepo(t)
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	if p := r.Get("foo"); p == nil || p.Version != "1.0" || len(p.Files) != 2 {
		t.Errorf("Get(foo) = %+v", p)
	}
	if r.Get("nope") != nil {
		t.Error("Get(nope) should be nil")
	}
	if err := r.Add(&Package{Name: "foo"}); err == nil {
		t.Error("duplicate Add must fail")
	}
	if err := r.Add(&Package{}); err == nil {
		t.Error("empty-name Add must fail")
	}
	names := r.Names()
	if len(names) != 4 || names[0] != "libc6" || names[3] != "bar" {
		t.Errorf("Names = %v", names)
	}
}

func TestDependencyClosure(t *testing.T) {
	r := sampleRepo(t)
	got := r.DependencyClosure("foo")
	want := []string{"foo", "libc6", "libfoo1"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("DependencyClosure(foo) = %v, want %v", got, want)
	}
	got = r.DependencyClosure("libc6")
	if len(got) != 1 || got[0] != "libc6" {
		t.Errorf("DependencyClosure(libc6) = %v", got)
	}
}

func TestReverseDependencies(t *testing.T) {
	r := sampleRepo(t)
	got := r.ReverseDependencies("libc6")
	want := []string{"bar", "foo", "libfoo1"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("ReverseDependencies(libc6) = %v, want %v", got, want)
	}
	if got := r.ReverseDependencies("foo"); len(got) != 0 {
		t.Errorf("ReverseDependencies(foo) = %v", got)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	r := sampleRepo(t)
	var buf bytes.Buffer
	if err := r.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := ParseIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != r.Len() {
		t.Fatalf("round trip Len = %d, want %d", r2.Len(), r.Len())
	}
	for _, name := range r.Names() {
		p1, p2 := r.Get(name), r2.Get(name)
		if p2 == nil {
			t.Fatalf("package %s lost in round trip", name)
		}
		if p1.Version != p2.Version || p1.Section != p2.Section {
			t.Errorf("%s: metadata mismatch: %+v vs %+v", name, p1, p2)
		}
		if strings.Join(p1.Depends, ",") != strings.Join(p2.Depends, ",") {
			t.Errorf("%s: depends mismatch: %v vs %v", name, p1.Depends, p2.Depends)
		}
		if len(p1.Files) != len(p2.Files) {
			t.Errorf("%s: file count mismatch: %d vs %d", name, len(p1.Files), len(p2.Files))
		}
	}
}

func TestParseIndexDebianisms(t *testing.T) {
	in := `Package: complex
Version: 1.2-3ubuntu1
Depends: libc6 (>= 2.14), libx | liby, libz (<< 3.0)
Description: a package
 with a continuation line
 .
 and more

Package: second
`
	r, err := ParseIndex(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	p := r.Get("complex")
	if p == nil {
		t.Fatal("complex not parsed")
	}
	want := []string{"libc6", "libx", "libz"}
	if strings.Join(p.Depends, " ") != strings.Join(want, " ") {
		t.Errorf("Depends = %v, want %v", p.Depends, want)
	}
	if r.Get("second") == nil {
		t.Error("trailing package without blank line lost")
	}
}

func TestParseIndexErrors(t *testing.T) {
	for _, in := range []string{
		"garbage line no colon\n",    // malformed field
		"Package: a\n\nPackage: a\n", // duplicate package
		"Package: \nVersion: 1\n",    // package with no name
	} {
		if _, err := ParseIndex(strings.NewReader(in)); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseIndex(%q) = %v, want ErrMalformed", in, err)
		}
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a (>= 1) , b|c ,, d ")
	want := []string{"a", "b", "d"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("splitList = %v, want %v", got, want)
	}
	if splitList("") != nil {
		t.Error("splitList(\"\") should be nil")
	}
}
