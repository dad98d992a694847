// Command apijobs is the CLI client for the async job tier: submit
// typed jobs, long-poll them to a terminal state, fetch results, and
// list the dead-letter queue. apiserved and apiworker serve the same
// job routes (internal/httpapi), so -server may name either; every
// non-2xx answer is the {error, retry_after_s, request_id} envelope,
// and apijobs prints its error. A server caps one long-poll at its
// request timeout minus 1s (29s by default), so wait and result re-poll
// with wait=25s until -timeout. It doubles as the transport for scripts
// in environments without curl.
//
// Usage:
//
//	apijobs -server http://127.0.0.1:8080 probe
//	apijobs -server ... submit compat-matrix '{}'
//	apijobs -server ... analyze /bin/ls             # analyze-upload from a file
//	apijobs -server ... wait j-0123abcd -timeout 60s
//	apijobs -server ... result j-0123abcd
//	apijobs -server ... list -state dead
//
// submit prints the returned job record; with -id-only just the job ID
// (and the dedupe flag on stderr), which is what scripts capture.
// Exit status: 0 on success (for wait: job done), 1 on a failed/dead
// job or transport error, 2 on usage errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: apijobs [flags] <command> [args]

commands:
  probe                         GET /healthz, exit 0/1 (health check for scripts)
  submit <type> [params-json]   submit a job; params default to {}; - reads stdin
  analyze <elf-file>            submit the file as an analyze-upload job
  wait <id>                     long-poll until the job is terminal
  result <id>                   print the job's result JSON
  status <id>                   print the job record
  list                          list jobs (-state, -type filters)

flags:
`)
	flag.PrintDefaults()
	os.Exit(2)
}

var (
	server  = flag.String("server", "http://127.0.0.1:8080", "base URL of the job tier")
	timeout = flag.Duration("timeout", 120*time.Second, "overall deadline for wait/result polling")
	state   = flag.String("state", "", "list: filter by state (queued|running|done|failed|dead)")
	typ     = flag.String("type", "", "list: filter by job type")
	idOnly  = flag.Bool("id-only", false, "submit/analyze: print only the job ID")
	reqID   = flag.String("request-id", "", "X-Request-ID to attach to requests")
)

func main() {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var err error
	switch cmd, args := flag.Arg(0), flag.Args()[1:]; cmd {
	case "probe":
		err = probe(ctx)
	case "submit":
		if len(args) < 1 || len(args) > 2 {
			usage()
		}
		params := "{}"
		if len(args) == 2 {
			params = args[1]
		}
		err = submit(ctx, args[0], []byte(params))
	case "analyze":
		if len(args) != 1 {
			usage()
		}
		err = analyze(ctx, args[0])
	case "wait":
		if len(args) != 1 {
			usage()
		}
		err = wait(ctx, args[0])
	case "result":
		if len(args) != 1 {
			usage()
		}
		err = result(ctx, args[0])
	case "status":
		if len(args) != 1 {
			usage()
		}
		err = status(ctx, args[0])
	case "list":
		err = list(ctx)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "apijobs: %v\n", err)
		os.Exit(1)
	}
}

// do runs one request against the server, decoding a JSON body into
// out when non-nil. Non-2xx responses become errors carrying the
// server's error envelope text.
func do(ctx context.Context, method, path string, body []byte, out any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, *server+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if *reqID != "" {
		req.Header.Set("X-Request-ID", *reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return resp, err
	}
	if resp.StatusCode/100 != 2 {
		var env struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(raw, &env) == nil && env.Error != "" {
			return resp, fmt.Errorf("%s %s: %s (%d)", method, path, env.Error, resp.StatusCode)
		}
		return resp, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode,
			strings.TrimSpace(string(raw)))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp, fmt.Errorf("decoding %s response: %w", path, err)
		}
	}
	return resp, nil
}

func probe(ctx context.Context) error {
	_, err := do(ctx, http.MethodGet, "/healthz", nil, nil)
	return err
}

func printJob(j *jobs.Job, deduped bool) {
	if *idOnly {
		fmt.Println(j.ID)
		if deduped {
			fmt.Fprintln(os.Stderr, "apijobs: deduped onto existing job")
		}
		return
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(j)
}

func submit(ctx context.Context, typ string, params []byte) error {
	if len(params) == 1 && params[0] == '-' {
		var err error
		if params, err = io.ReadAll(os.Stdin); err != nil {
			return err
		}
	}
	var j jobs.Job
	resp, err := do(ctx, http.MethodPost, "/v1/jobs/"+typ, params, &j)
	if err != nil {
		return err
	}
	printJob(&j, resp.StatusCode == http.StatusOK)
	return nil
}

func analyze(ctx context.Context, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	params, err := json.Marshal(service.AnalyzeUploadParams{
		Name: filepath.Base(path), ELF: data,
	})
	if err != nil {
		return err
	}
	return submit(ctx, service.JobAnalyzeUpload, params)
}

// pollTerminal long-polls the job until it reaches a terminal state or
// ctx expires (servers cap one ?wait= under their request timeout, so
// the client re-polls).
func pollTerminal(ctx context.Context, id string) (*jobs.Job, error) {
	for {
		var j jobs.Job
		if _, err := do(ctx, http.MethodGet, "/v1/jobs/"+id+"?wait=25s", nil, &j); err != nil {
			return nil, err
		}
		if j.State.Terminal() {
			return &j, nil
		}
		if err := ctx.Err(); err != nil {
			return &j, fmt.Errorf("job %s still %s: %w", id, j.State, err)
		}
	}
}

func wait(ctx context.Context, id string) error {
	j, err := pollTerminal(ctx, id)
	if err != nil {
		return err
	}
	printJob(j, false)
	if j.State != jobs.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, j.State, j.Error)
	}
	return nil
}

func result(ctx context.Context, id string) error {
	if _, err := pollTerminal(ctx, id); err != nil {
		return err
	}
	var raw json.RawMessage
	if _, err := do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &raw); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		os.Stdout.Write(raw)
		return nil
	}
	buf.WriteByte('\n')
	buf.WriteTo(os.Stdout)
	return nil
}

func status(ctx context.Context, id string) error {
	var j jobs.Job
	if _, err := do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &j); err != nil {
		return err
	}
	printJob(&j, false)
	return nil
}

func list(ctx context.Context) error {
	path := "/v1/jobs"
	q := make([]string, 0, 2)
	if *state != "" {
		q = append(q, "state="+*state)
	}
	if *typ != "" {
		q = append(q, "type="+*typ)
	}
	if len(q) > 0 {
		path += "?" + strings.Join(q, "&")
	}
	var out json.RawMessage
	if _, err := do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, out, "", "  "); err != nil {
		os.Stdout.Write(out)
		return nil
	}
	buf.WriteByte('\n')
	buf.WriteTo(os.Stdout)
	return nil
}
