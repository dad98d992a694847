package apt

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzParseIndex feeds ParseIndex arbitrary bytes. Nothing may panic; a
// rejection is ErrMalformed (or bufio.ErrTooLong for a line past the
// scanner's 1 MiB) and no repository; and an accepted index,
// written back with WriteIndex, must parse to the same repository.
// Seeds live in testdata/fuzz/FuzzParseIndex.
func FuzzParseIndex(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := ParseIndex(bytes.NewReader(data))
		if err != nil {
			if r != nil || !errors.Is(err, ErrMalformed) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("rejected with %v, repository %v; want ErrMalformed and none", err, r)
			}
			return
		}
		if r == nil {
			t.Fatal("accepted without a repository")
		}
		var buf bytes.Buffer
		if err := r.WriteIndex(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ParseIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("the written index does not parse: %v\n%q", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("the written index parses differently:\ninput %q\nindex %q", data, buf.Bytes())
		}
	})
}
