// Verdict records: the cache's second record family. Where the primary
// records store what a binary's code *contains* (the static footprint
// summary), verdict records store what fault-injection emulation proved
// about how the binary *behaves* — per-API stub/fake tolerance. They are
// far more expensive to recompute (one baseline emulator run per binary
// plus up to two fault-injection replays per API it issues), so caching
// them is what makes warm plan builds emulation-free.
//
// The envelope discipline matches the primary records: a hit requires
// the caller's tag (analysis version + emulation policy version +
// options) and the content key to match, any decode failure degrades to
// a miss, and writes are temp-file-plus-rename atomic. Records live
// beside the summary records in the same sharded tree under a distinct
// file suffix, so one cache directory serves both families without
// collisions.
package anacache

import (
	"encoding/json"
	"os"
	"path/filepath"
)

// verdictRecord is the on-disk envelope around a verdict payload. The
// payload stays raw here — the cache validates the envelope, the caller
// owns the schema — so this package does not import the verdict types.
type verdictRecord struct {
	Tag     string          `json:"tag"`
	Key     string          `json:"key"`
	Verdict json.RawMessage `json:"verdict"`
}

// verdictPath shards verdict records like summary records, under a
// suffix that keeps the two families apart in the same tree.
func (c *Cache) verdictPath(key string) string {
	return filepath.Join(c.dir, key[:2], key[2:]+".verdict.json")
}

// GetVerdicts looks up the cached verdict payload for a binary's content
// key under the given tag, decoding it into v. A false return means the
// caller must re-emulate; stale or corrupt records are counted and never
// decoded into v.
func (c *Cache) GetVerdicts(key, tag string, v any) bool {
	memoKey := tag + "\x00" + key
	c.mu.RLock()
	raw, ok := c.vmem[memoKey]
	c.mu.RUnlock()
	if !ok {
		fileRaw, err := os.ReadFile(c.verdictPath(key))
		if err != nil {
			c.verdictMisses.Add(1)
			return false
		}
		var rec verdictRecord
		if err := json.Unmarshal(fileRaw, &rec); err != nil ||
			rec.Tag != tag || rec.Key != key || len(rec.Verdict) == 0 || string(rec.Verdict) == "null" {
			c.verdictInvalidations.Add(1)
			c.verdictMisses.Add(1)
			return false
		}
		raw = rec.Verdict
		c.memoizeVerdict(memoKey, raw)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		c.verdictInvalidations.Add(1)
		c.verdictMisses.Add(1)
		return false
	}
	c.verdictHits.Add(1)
	return true
}

func (c *Cache) memoizeVerdict(memoKey string, raw json.RawMessage) {
	c.mu.Lock()
	if c.vmem == nil {
		c.vmem = make(map[string]json.RawMessage)
	}
	c.vmem[memoKey] = raw
	c.mu.Unlock()
}

// PutVerdicts persists the verdict payload for a binary's content key
// under the given tag. Like Put, errors are advisory: a failed write
// only costs a future re-emulation.
func (c *Cache) PutVerdicts(key, tag string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		c.verdictWriteErrors.Add(1)
		return err
	}
	c.memoizeVerdict(tag+"\x00"+key, raw)
	enc, err := json.Marshal(verdictRecord{Tag: tag, Key: key, Verdict: raw})
	if err != nil {
		c.verdictWriteErrors.Add(1)
		return err
	}
	dst := c.verdictPath(key)
	if err := c.writeRaw(dst, enc); err != nil {
		c.verdictWriteErrors.Add(1)
		return err
	}
	c.verdictWrites.Add(1)
	return nil
}
