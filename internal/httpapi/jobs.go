package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
)

// The job tier's one HTTP surface: apiserved mounts it inside New, and
// processes without a query service (cmd/apiworker) mount NewJobs.
// These routes bypass admission control deliberately: the job tier
// carries its own bounded queue (submission beyond it is a 429 of its
// own), status and list are cheap map reads, and a long-poll parked in
// Wait would otherwise pin an admission slot for its full duration —
// 32 pollers could starve the query path that admission exists to
// protect.

// NewJobs serves only the job routes over m, with the request-ID,
// error-envelope, timeout and logging shell that New's routes share.
// Of opts it reads RequestTimeout, MaxUploadBytes and Logger, with
// New's defaults.
func NewJobs(m *jobs.Manager, opts Options) *API {
	a := newAPI(nil, Options{
		Logger:         opts.Logger,
		RequestTimeout: opts.RequestTimeout,
		MaxUploadBytes: opts.MaxUploadBytes,
		Jobs:           m,
	})
	a.mountJobs()
	return a
}

func (a *API) mountJobs() {
	a.handle("POST /v1/jobs/{type}", a.handleJobSubmit, bypassAdmission)
	a.handle("GET /v1/jobs", a.handleJobList, bypassAdmission)
	a.handle("GET /v1/jobs/{id}", a.handleJobStatus, bypassAdmission)
	a.handle("GET /v1/jobs/{id}/result", a.handleJobResult, bypassAdmission)
}

// submitJob enqueues one job on behalf of an HTTP request and writes
// the job record: 202 for new work, 200 when an existing job absorbed
// the submission (the deduped header says which).
func (a *API) submitJob(w http.ResponseWriter, r *http.Request, typ string, params json.RawMessage) {
	j, deduped, err := a.opts.Jobs.Submit(typ, params, jobs.SubmitOptions{
		RequestID: RequestIDFrom(r.Context()),
	})
	if err != nil {
		code := submitErrorStatus(err)
		if code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, r, code, "%v", err)
		return
	}
	w.Header().Set("X-Job-Deduped", strconv.FormatBool(deduped))
	writeJSON(w, submitStatus(deduped), j)
}

// submitStatus is 202 Accepted for newly queued work and 200 OK when
// an existing job absorbed the submission.
func submitStatus(deduped bool) int {
	if deduped {
		return http.StatusOK
	}
	return http.StatusAccepted
}

// submitErrorStatus maps a Submit error to an HTTP status.
func submitErrorStatus(err error) int {
	switch {
	case errors.Is(err, jobs.ErrUnknownType):
		return http.StatusNotFound
	case errors.Is(err, jobs.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (a *API) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, a.opts.MaxUploadBytes*2+1))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > a.opts.MaxUploadBytes*2 {
		// Params are JSON (an embedded ELF arrives base64-encoded, ~4/3
		// its raw size), so the job limit sits above the upload limit.
		writeError(w, r, http.StatusRequestEntityTooLarge,
			"params exceed %d bytes", a.opts.MaxUploadBytes*2)
		return
	}
	a.submitJob(w, r, r.PathValue("type"), body)
}

// jobWait parses ?wait= and caps it under the request timeout, so a
// long-poll always returns a 200 snapshot before the server-side
// deadline would kill the request.
func (a *API) jobWait(r *http.Request) (time.Duration, error) {
	ceiling := a.opts.RequestTimeout - time.Second
	if ceiling <= 0 {
		ceiling = a.opts.RequestTimeout / 2
	}
	return parseWait(r.URL.Query().Get("wait"), ceiling)
}

// parseWait reads a ?wait= value as a long-poll duration clamped to
// [0, ceiling]. Empty means no wait; bad syntax is an error for a 400.
func parseWait(q string, ceiling time.Duration) (time.Duration, error) {
	if q == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil {
		return 0, fmt.Errorf("bad wait %q: %w", q, err)
	}
	return min(max(d, 0), ceiling), nil
}

func (a *API) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wait, err := a.jobWait(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	var j *jobs.Job
	if wait > 0 {
		j, err = a.opts.Jobs.Wait(r.Context(), id, wait)
	} else {
		var ok bool
		if j, ok = a.opts.Jobs.Get(id); !ok {
			err = fmt.Errorf("%w: %q", jobs.ErrUnknownJob, id)
		}
	}
	if err != nil {
		writeError(w, r, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, j)
}

func (a *API) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	wait, err := a.jobWait(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	if wait > 0 {
		if _, err := a.opts.Jobs.Wait(r.Context(), id, wait); err != nil {
			writeError(w, r, http.StatusNotFound, "%v", err)
			return
		}
	}
	raw, j, err := a.opts.Jobs.Result(id)
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(raw)
	case errors.Is(err, jobs.ErrUnknownJob):
		writeError(w, r, http.StatusNotFound, "%v", err)
	case j != nil && !j.State.Terminal():
		// In progress: a 202 with the record mirrors the submission
		// response, so pollers decode one shape until the result lands.
		writeJSON(w, http.StatusAccepted, j)
	default:
		writeError(w, r, http.StatusInternalServerError,
			"job %s: %s", j.State, j.Error)
	}
}

func (a *API) handleJobList(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, r, http.StatusBadRequest, "bad limit %q: want a non-negative integer", q)
			return
		}
		limit = v
	}
	js, err := a.opts.Jobs.List(jobs.State(r.URL.Query().Get("state")),
		r.URL.Query().Get("type"), limit)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": js, "count": len(js)})
}

// analyzeAsync routes an oversized /v1/analyze upload into the job
// tier: the raw ELF becomes an analyze-upload job and the caller gets
// 202 + the job record instead of holding a connection (and an
// analysis-pool slot) for the whole disassembly.
func (a *API) analyzeAsync(w http.ResponseWriter, r *http.Request, name string, data []byte) {
	params, err := json.Marshal(service.AnalyzeUploadParams{Name: name, ELF: data})
	if err != nil {
		writeError(w, r, http.StatusInternalServerError, "encoding job params: %v", err)
		return
	}
	a.submitJob(w, r, service.JobAnalyzeUpload, params)
}
