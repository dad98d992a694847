package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/footprint"
)

// AnalyzePath is the worker's shard-analysis endpoint.
const AnalyzePath = "/v1/shard/analyze"

// ShardFile is one ELF binary shipped to a worker: enough for the worker
// to run the ordinary per-binary pipeline (and key its analysis cache by
// content), nothing more.
type ShardFile struct {
	Pkg  string `json:"pkg"`
	Path string `json:"path"`
	Lib  bool   `json:"lib,omitempty"`
	Data []byte `json:"data"`
}

// ShardRequest is the body POSTed to AnalyzePath.
type ShardRequest struct {
	// Shard is the coordinator's shard index, echoed back so a response
	// can never be credited to the wrong shard.
	Shard int               `json:"shard"`
	Opts  footprint.Options `json:"opts"`
	Files []ShardFile       `json:"files"`
}

// FileResult is the outcome for one ShardFile: exactly one of Summary
// (analysis succeeded) or Err (the file failed to parse as ELF) is set.
type FileResult struct {
	Summary *footprint.Summary `json:"summary,omitempty"`
	Err     string             `json:"error,omitempty"`
}

// ShardResponse answers a ShardRequest, one result per requested file,
// index for index.
type ShardResponse struct {
	Shard   int          `json:"shard"`
	Results []FileResult `json:"results"`
}

// ErrMalformedRequest marks a shard request a worker rejects: anything
// but exactly one JSON object of the ShardRequest form, or a request
// carrying no files.
var ErrMalformedRequest = errors.New("fleet: malformed shard request")

// decodeRequest is the one reader of a ShardRequest, for the worker's
// HTTP endpoint and its job executor alike. Every error wraps
// ErrMalformedRequest.
func decodeRequest(raw []byte) (*ShardRequest, error) {
	var req ShardRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrMalformedRequest, err)
	}
	if len(req.Files) == 0 {
		return nil, fmt.Errorf("%w: shard %d carries no files", ErrMalformedRequest, req.Shard)
	}
	return &req, nil
}

// ErrCorruptResponse marks a worker response the coordinator rejects as
// malformed: undecodable, mis-routed, or carrying summaries that do not
// match the request or that extraction cannot have produced.
var ErrCorruptResponse = errors.New("fleet: corrupt shard response")

// decodeResponse reads a worker's response to req and validates it.
// Workers are part of the unreliable fleet: a truncated, mis-routed, or
// corrupt payload must read as a dispatch failure (and be retried
// elsewhere), never as analysis results. Every error wraps
// ErrCorruptResponse.
func decodeResponse(body io.Reader, req *ShardRequest) (*ShardResponse, error) {
	var resp ShardResponse
	if err := json.NewDecoder(body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("%w: shard %d: decoding: %w", ErrCorruptResponse, req.Shard, err)
	}
	if err := resp.validate(req); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptResponse, err)
	}
	return &resp, nil
}

// validate checks a response against its request: the shard it answers,
// one result per file, and for each summary the file's path, the
// request's options, and footprint's Summary.Check.
func (resp *ShardResponse) validate(req *ShardRequest) error {
	if resp.Shard != req.Shard {
		return fmt.Errorf("response for shard %d, want %d", resp.Shard, req.Shard)
	}
	if len(resp.Results) != len(req.Files) {
		return fmt.Errorf("shard %d: %d results for %d files",
			req.Shard, len(resp.Results), len(req.Files))
	}
	for i := range resp.Results {
		r := &resp.Results[i]
		if (r.Summary == nil) == (r.Err == "") {
			return fmt.Errorf("shard %d: file %d: want exactly one of summary or error",
				req.Shard, i)
		}
		if r.Summary == nil {
			continue
		}
		if r.Summary.Path != req.Files[i].Path {
			return fmt.Errorf("shard %d: file %d: summary for %q, want %q",
				req.Shard, i, r.Summary.Path, req.Files[i].Path)
		}
		if r.Summary.Opts != req.Opts {
			return fmt.Errorf("shard %d: file %d: summary extracted under %+v, want %+v",
				req.Shard, i, r.Summary.Opts, req.Opts)
		}
		if err := r.Summary.Check(); err != nil {
			return fmt.Errorf("shard %d: file %d: %w", req.Shard, i, err)
		}
	}
	return nil
}
