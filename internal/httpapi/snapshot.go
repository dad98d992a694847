package httpapi

import (
	"errors"
	"io"
	"net/http"

	"repro/internal/service"
	"repro/internal/snapshot"
)

// mountSnapshots wires the replica admin routes. They bypass admission:
// a publisher push must land while query traffic is being shed.
func (a *API) mountSnapshots() {
	a.handle("POST /v1/snapshot", a.handleSnapshotPush, bypassAdmission)
	a.handle("POST /v1/snapshot/rollback", a.handleSnapshotRollback, bypassAdmission)
	a.handle("GET /v1/snapshot", a.handleSnapshotStatus, bypassAdmission)
}

// handleSnapshotPush accepts a snapshot file pushed by the publisher,
// installs it through the manager, and echoes the installed generation
// and fingerprint so the publisher can verify the replica took exactly
// what it sent. Corrupt bytes are a 400, a non-advancing generation a
// 409 — both leave the served study untouched.
func (a *API) handleSnapshotPush(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, a.opts.MaxSnapshotBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, r, http.StatusRequestEntityTooLarge,
				"snapshot exceeds %d byte limit", a.opts.MaxSnapshotBytes)
			return
		}
		writeError(w, r, http.StatusBadRequest, "reading snapshot body: %v", err)
		return
	}
	info, err := a.opts.Snapshots.Install(data)
	if err != nil {
		switch {
		case errors.Is(err, service.ErrStaleGeneration):
			writeError(w, r, http.StatusConflict, "%v", err)
		case errors.Is(err, snapshot.ErrCorrupt):
			writeError(w, r, http.StatusBadRequest, "%v", err)
		default:
			writeError(w, r, http.StatusInternalServerError, "installing snapshot: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleSnapshotRollback re-serves the previous pushed generation.
func (a *API) handleSnapshotRollback(w http.ResponseWriter, r *http.Request) {
	info, err := a.opts.Snapshots.Rollback()
	if err != nil {
		if errors.Is(err, service.ErrNoPrevious) {
			writeError(w, r, http.StatusConflict, "%v", err)
			return
		}
		writeError(w, r, http.StatusInternalServerError, "rolling back snapshot: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleSnapshotStatus reports the managed generations and counters.
func (a *API) handleSnapshotStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.opts.Snapshots.Status())
}
