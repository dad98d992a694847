package httpapi

// The query handlers: each serves pre-encoded answer bytes from the
// service's hotset, sharded byte cache or singleflighted compute, so a
// steady-state hit is a map probe plus one Write, with no lock and no
// encoder. The bytes are pinned by the golden response files under
// testdata/. Every answer carries a strong ETag derived from the study
// fingerprint, so polling clients revalidate with If-None-Match and get
// 304s.

import (
	"net/http"
	"strconv"
	"strings"

	"repro/internal/service"
)

// writeEncoded serves one pre-encoded answer: ETag always, 304 when the
// client already holds these exact bytes, otherwise the body with an
// explicit Content-Length (the bytes are in hand; let clients and
// proxies size buffers).
func writeEncoded(w http.ResponseWriter, r *http.Request, enc service.Encoded) {
	h := w.Header()
	h.Set("ETag", enc.ETag)
	if enc.Status == http.StatusOK && etagMatch(r.Header.Get("If-None-Match"), enc.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(enc.Body)))
	w.WriteHeader(enc.Status)
	w.Write(enc.Body)
}

// etagMatch reports whether an If-None-Match header names etag. Weak
// comparison: a W/ prefix on the client's copy still matches.
func etagMatch(header, etag string) bool {
	for header != "" {
		var part string
		part, header, _ = strings.Cut(header, ",")
		part = strings.TrimSpace(part)
		if part == etag || part == "*" || part == "W/"+etag {
			return true
		}
	}
	return false
}

func (a *API) handleImportance(w http.ResponseWriter, r *http.Request) {
	gen, err := genParam(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	enc, err := a.svc.ImportanceBytes(gen, r.PathValue("syscall"))
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}

func (a *API) handleCompleteness(w http.ResponseWriter, r *http.Request) {
	gen, err := genParam(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	var req completenessRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	enc, err := a.svc.CompletenessBytes(gen, req.Syscalls)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}

func (a *API) handleSuggest(w http.ResponseWriter, r *http.Request) {
	gen, err := genParam(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	var req suggestRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	enc, err := a.svc.SuggestBytes(gen, req.Supported, req.K)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}

func (a *API) handlePath(w http.ResponseWriter, r *http.Request) {
	gen, err := genParam(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	n, err := positiveParam(r, "n")
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	enc, err := a.svc.PathBytes(gen, n)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}

func (a *API) handleFootprint(w http.ResponseWriter, r *http.Request) {
	gen, err := genParam(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	enc, err := a.svc.FootprintBytes(gen, r.PathValue("pkg"))
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}

func (a *API) handleSeccomp(w http.ResponseWriter, r *http.Request) {
	enc, err := a.svc.SeccompBytes(r.PathValue("pkg"), r.URL.Query().Get("deny"))
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}

func (a *API) handlePlan(w http.ResponseWriter, r *http.Request) {
	system := r.URL.Query().Get("system")
	if system == "" {
		writeError(w, r, http.StatusBadRequest, "missing system parameter")
		return
	}
	enc, err := a.svc.PlanBytes(system)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}

func (a *API) handleCompatSystems(w http.ResponseWriter, r *http.Request) {
	enc, err := a.svc.CompatSystemsBytes()
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}

func (a *API) handleTrendImportance(w http.ResponseWriter, r *http.Request) {
	top, err := positiveParam(r, "top")
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	enc, err := a.svc.TrendImportanceBytes(r.URL.Query().Get("api"), top)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}

func (a *API) handleTrendCompleteness(w http.ResponseWriter, r *http.Request) {
	enc, err := a.svc.TrendCompletenessBytes(r.URL.Query().Get("target"))
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}

func (a *API) handleTrendPath(w http.ResponseWriter, r *http.Request) {
	limit, err := positiveParam(r, "limit")
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	enc, err := a.svc.TrendPathBytes(r.URL.Query().Get("direction"), limit)
	if err != nil {
		writeServiceError(w, r, err)
		return
	}
	writeEncoded(w, r, enc)
}
