// Package popcon models the Debian/Ubuntu "popularity contest" survey the
// paper weights its metrics with (§2): for each package, how many of the
// participating installations have it installed. The paper's data set
// spans 2,935,744 installations (2,745,304 Ubuntu + 187,795 Debian).
package popcon

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PaperTotalInstallations is the installation population of the paper's
// combined Ubuntu + Debian survey data.
const PaperTotalInstallations = 2935744

// Survey is one popularity-contest data set.
type Survey struct {
	// Total is the number of installations that reported.
	Total int64
	// counts maps package name to the number of installations that have it.
	counts map[string]int64
}

// NewSurvey returns an empty survey with the given installation population.
func NewSurvey(total int64) *Survey {
	return &Survey{Total: total, counts: make(map[string]int64)}
}

// Set records the installation count for a package; counts are clamped to
// [0, Total].
func (s *Survey) Set(pkg string, installs int64) {
	if installs < 0 {
		installs = 0
	}
	if installs > s.Total {
		installs = s.Total
	}
	s.counts[pkg] = installs
}

// Installs returns the installation count for a package (0 if unreported).
func (s *Survey) Installs(pkg string) int64 { return s.counts[pkg] }

// Fraction returns the fraction of installations that include pkg: the
// Pr{pkg ∈ Inst} term of the paper's formal definitions (Appendix A).
func (s *Survey) Fraction(pkg string) float64 {
	if s.Total <= 0 {
		return 0
	}
	return float64(s.counts[pkg]) / float64(s.Total)
}

// Packages returns all reported package names, sorted by descending
// installation count (ties broken by name), i.e. by_inst order.
func (s *Survey) Packages() []string {
	out := make([]string, 0, len(s.counts))
	for p := range s.counts {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := s.counts[out[i]], s.counts[out[j]]
		if ci != cj {
			return ci > cj
		}
		return out[i] < out[j]
	})
	return out
}

// Len returns the number of reported packages.
func (s *Survey) Len() int { return len(s.counts) }

// ExpectedInstalledPackages is E(|Inst|), the expected number of packages
// on a random installation: the denominator of weighted completeness.
func (s *Survey) ExpectedInstalledPackages() float64 {
	var sum float64
	for _, c := range s.counts {
		sum += float64(c) / float64(s.Total)
	}
	return sum
}

// Write serializes the survey in the popularity-contest by_inst format:
//
//	#rank name inst vote old recent no-files (maintainer)
//
// We carry real data only in the name and inst columns, like the study.
func (s *Survey) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "#total %d\n", s.Total)
	fmt.Fprintln(bw, "#rank name inst vote old recent no-files (maintainer)")
	for rank, pkg := range s.Packages() {
		c := s.counts[pkg]
		fmt.Fprintf(bw, "%d %s %d %d %d %d %d (Unknown)\n",
			rank+1, pkg, c, c/2, c/4, c/8, 0)
	}
	return bw.Flush()
}

// ErrMalformed is wrapped by every error Parse returns for a survey it
// rejects: a total or count that is not a non-negative integer, a line
// with too few fields, or a package reported twice.
var ErrMalformed = errors.New("popcon: malformed survey")

// Parse reads the by_inst format written by Write. Lines starting with '#'
// are comments except "#total N", which sets the installation population;
// files without it fall back to the largest single count observed.
func Parse(rd io.Reader) (*Survey, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	s := NewSurvey(0)
	var maxCount int64
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "#total "); ok {
				total, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%w: line %d: bad total: %w", ErrMalformed, lineno, err)
				}
				if total < 0 {
					return nil, fmt.Errorf("%w: line %d: negative total %d", ErrMalformed, lineno, total)
				}
				s.Total = total
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%w: line %d: too few fields: %q", ErrMalformed, lineno, line)
		}
		count, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: bad count %q: %w", ErrMalformed, lineno, fields[2], err)
		}
		if count < 0 {
			return nil, fmt.Errorf("%w: line %d: negative count %d", ErrMalformed, lineno, count)
		}
		if _, dup := s.counts[fields[1]]; dup {
			return nil, fmt.Errorf("%w: line %d: package %q reported twice", ErrMalformed, lineno, fields[1])
		}
		s.counts[fields[1]] = count
		if count > maxCount {
			maxCount = count
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if s.Total == 0 {
		s.Total = maxCount
	}
	// Clamp any counts above the (possibly late-discovered) total.
	for p, c := range s.counts {
		if c > s.Total {
			s.counts[p] = s.Total
		}
	}
	return s, nil
}
