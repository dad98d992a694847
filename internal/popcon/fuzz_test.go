package popcon

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzParse feeds Parse arbitrary bytes. Nothing may panic; a rejection
// is ErrMalformed (or bufio.ErrTooLong for a line past the scanner's
// 1 MiB) and no survey; an accepted survey has every count in
// [0, Total]; and written back with Write it must parse to the same
// survey. Seeds live in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data))
		if err != nil {
			if s != nil || !errors.Is(err, ErrMalformed) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("rejected with %v, survey %v; want ErrMalformed and none", err, s)
			}
			return
		}
		if s == nil {
			t.Fatal("accepted without a survey")
		}
		for pkg, c := range s.counts {
			if c < 0 || c > s.Total {
				t.Fatalf("%s has %d installs of %d: %q", pkg, c, s.Total, data)
			}
		}
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("the written survey does not parse: %v\n%q", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("the written survey parses differently:\ninput %q\nsurvey %q", data, buf.Bytes())
		}
	})
}
