package popcon

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSurveyBasics(t *testing.T) {
	s := NewSurvey(1000)
	s.Set("libc6", 1000)
	s.Set("foo", 250)
	s.Set("rare", 1)
	if got := s.Installs("foo"); got != 250 {
		t.Errorf("Installs(foo) = %d", got)
	}
	if got := s.Installs("absent"); got != 0 {
		t.Errorf("Installs(absent) = %d", got)
	}
	if got := s.Fraction("libc6"); got != 1.0 {
		t.Errorf("Fraction(libc6) = %v", got)
	}
	if got := s.Fraction("foo"); got != 0.25 {
		t.Errorf("Fraction(foo) = %v", got)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestSurveyClamping(t *testing.T) {
	s := NewSurvey(100)
	s.Set("over", 500)
	s.Set("neg", -5)
	if s.Installs("over") != 100 {
		t.Errorf("over = %d, want clamp to 100", s.Installs("over"))
	}
	if s.Installs("neg") != 0 {
		t.Errorf("neg = %d, want clamp to 0", s.Installs("neg"))
	}
}

func TestPackagesOrder(t *testing.T) {
	s := NewSurvey(100)
	s.Set("b", 50)
	s.Set("a", 50)
	s.Set("c", 99)
	got := s.Packages()
	want := []string{"c", "a", "b"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("Packages = %v, want %v", got, want)
	}
}

func TestExpectedInstalledPackages(t *testing.T) {
	s := NewSurvey(100)
	s.Set("a", 100)
	s.Set("b", 50)
	s.Set("c", 25)
	if got := s.ExpectedInstalledPackages(); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("ExpectedInstalledPackages = %v, want 1.75", got)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	s := NewSurvey(2935744)
	s.Set("dpkg", 2935744)
	s.Set("foo", 1234)
	s.Set("bar", 1)
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Total != s.Total {
		t.Errorf("Total = %d, want %d", s2.Total, s.Total)
	}
	for _, p := range []string{"dpkg", "foo", "bar"} {
		if s2.Installs(p) != s.Installs(p) {
			t.Errorf("%s = %d, want %d", p, s2.Installs(p), s.Installs(p))
		}
	}
}

func TestParseRealWorldFormat(t *testing.T) {
	in := `#rank name inst vote old recent no-files (maintainer)
1     dpkg                          143902 130675 10620 2548    59 (Dpkg Developers)
2     libc6                         143839 131601 9205 2983    50 (GNU Libc Maintainers)
`
	s, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Installs("dpkg") != 143902 || s.Installs("libc6") != 143839 {
		t.Errorf("parsed counts: dpkg=%d libc6=%d", s.Installs("dpkg"), s.Installs("libc6"))
	}
	// Without #total, the max count becomes the population.
	if s.Total != 143902 {
		t.Errorf("Total = %d, want 143902", s.Total)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"1 foo notanumber\n",           // bad count
		"#total xyz\n",                 // bad total
		"1 foo\n",                      // short line
		"1 foo -5\n",                   // negative count
		"#total -1\n1 foo 5\n",         // negative total
		"1 foo 99999999999999999999\n", // overflowing count
		"1 foo 5\n2 foo 3\n",           // duplicate package
	} {
		if _, err := Parse(strings.NewReader(in)); !errors.Is(err, ErrMalformed) {
			t.Errorf("Parse(%q) = %v, want ErrMalformed", in, err)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(counts map[string]uint16) bool {
		s := NewSurvey(1 << 16)
		for name, c := range counts {
			name = strings.Map(func(r rune) rune {
				if r <= ' ' || r > '~' || r == '#' {
					return 'x'
				}
				return r
			}, name)
			if name == "" {
				continue
			}
			s.Set(name, int64(c))
		}
		var buf bytes.Buffer
		if err := s.Write(&buf); err != nil {
			return false
		}
		s2, err := Parse(&buf)
		if err != nil {
			return false
		}
		if s2.Len() != s.Len() {
			return false
		}
		for _, p := range s.Packages() {
			if s2.Installs(p) != s.Installs(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
