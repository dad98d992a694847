package httpapi

// Trend endpoints over the resident release series (see
// internal/evolution): /v1/trends/importance, /v1/trends/completeness
// and /v1/trends/path answer from the precomputed cross-generation trend
// series, and a `?gen=` selector on the ordinary query endpoints
// retargets them at one generation's study.

import (
	"net/http"
	"strconv"
)

// genParam parses the optional `?gen=` generation selector: -1 (resident
// snapshot) when absent.
func genParam(r *http.Request) (int, error) {
	s := r.URL.Query().Get("gen")
	if s == "" {
		return -1, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, &badParamError{param: "gen", value: s}
	}
	return v, nil
}

// positiveParam parses an optional non-negative integer query parameter,
// returning 0 when absent.
func positiveParam(r *http.Request, name string) (int, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		return 0, &badParamError{param: name, value: s}
	}
	return v, nil
}

// badParamError is an unparsable query parameter (always a 400).
type badParamError struct{ param, value string }

func (e *badParamError) Error() string {
	return "bad " + e.param + " " + strconv.Quote(e.value)
}
