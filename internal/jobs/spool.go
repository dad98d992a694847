package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atomicfile"
)

// spool persists job records and results as individual JSON files:
//
//	<dir>/jobs/<id>.json     one Job record, rewritten on every state change
//	<dir>/results/<id>.json  the raw result document of a done job
//
// Writes are durable atomicfile writes, so a concurrent reader, or a
// restart after a crash at any point of a write, sees the old complete
// file or the new complete file, never a torn one; and a record a 202
// answered, or a result a done record points to, is on disk before the
// caller moves on, unless its write failed (the Manager counts and logs
// each failed write). All methods are nil-receiver safe: a Manager without
// a SpoolDir simply calls into no-ops, keeping the hot paths free of
// "if persistent" branches.
type spool struct {
	jobsDir    string
	resultsDir string
}

func openSpool(dir string) (*spool, error) {
	s := &spool{
		jobsDir:    filepath.Join(dir, "jobs"),
		resultsDir: filepath.Join(dir, "results"),
	}
	for _, d := range []string{s.jobsDir, s.resultsDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: creating spool: %w", err)
		}
	}
	return s, nil
}

// putJob persists the current job record.
func (s *spool) putJob(j *Job) error {
	if s == nil {
		return nil
	}
	data, err := json.Marshal(j)
	if err == nil {
		err = atomicfile.WriteDurable(filepath.Join(s.jobsDir, j.ID+".json"), data)
	}
	if err != nil {
		return fmt.Errorf("job record %s: %w", j.ID, err)
	}
	return nil
}

// putResult persists a done job's result document.
func (s *spool) putResult(id string, raw json.RawMessage) error {
	if s == nil {
		return nil
	}
	if err := atomicfile.WriteDurable(filepath.Join(s.resultsDir, id+".json"), raw); err != nil {
		return fmt.Errorf("result %s: %w", id, err)
	}
	return nil
}

func (s *spool) getResult(id string) (json.RawMessage, error) {
	if s == nil {
		return nil, fmt.Errorf("no spool")
	}
	return os.ReadFile(filepath.Join(s.resultsDir, id+".json"))
}

func (s *spool) hasResult(id string) bool {
	if s == nil {
		return false
	}
	_, err := os.Stat(filepath.Join(s.resultsDir, id+".json"))
	return err == nil
}

// remove deletes a job's record and result (TTL expiry).
func (s *spool) remove(id string) {
	if s == nil {
		return
	}
	os.Remove(filepath.Join(s.jobsDir, id+".json"))
	os.Remove(filepath.Join(s.resultsDir, id+".json"))
}

// loadJobs reads every job record in the spool and removes the temp
// files that writes cut short by a crash left in either directory. A
// record that cannot be read, parsed or matched to its file name is
// skipped and returned by name, not fatal: one corrupt record must not
// block recovery of the rest. Foreign files are ignored.
func (s *spool) loadJobs() (jobs []*Job, skipped []string, err error) {
	if s == nil {
		return nil, nil, nil
	}
	for _, dir := range []string{s.resultsDir, s.jobsDir} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, nil, fmt.Errorf("jobs: scanning spool: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			path := filepath.Join(dir, name)
			if strings.HasPrefix(name, atomicfile.TempPrefix) {
				os.Remove(path)
				continue
			}
			if dir != s.jobsDir || e.IsDir() || !strings.HasSuffix(name, ".json") {
				continue
			}
			var j Job
			data, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(data, &j)
			}
			if err != nil || j.ID == "" || j.ID != strings.TrimSuffix(name, ".json") {
				skipped = append(skipped, name)
				continue
			}
			jobs = append(jobs, &j)
		}
	}
	return jobs, skipped, nil
}
