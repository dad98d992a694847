package service

// The hotset: every answer the steady-state read traffic concentrates
// on, pre-encoded at snapshot install time and published through one
// atomic.Pointer next to the snapshot itself. A hotset hit is a map
// probe plus a buffer write — no lock, no encoder, no allocation. The
// contents mirror where real compat-layer traffic lands (the paper's
// Tables 6/7 and Figure 5 surfaces): the full importance table, the
// complete greedy path, the Table 6 system rows, and the completeness
// and suggest curves of every modeled compat target. Entries carry the
// same generation-prefixed keys the byte cache uses, so a request that
// loaded an older snapshot simply misses into the cache — stale bytes
// are unreachable by construction.

import (
	"strconv"

	"repro"
	"repro/internal/compat"
	"repro/internal/linuxapi"
)

// hotsetSuggestMaxK bounds the precomputed suggest curves: every k the
// API's default range produces (the handlers clamp k <= 0 to 5, and the
// load generator draws 1..8) resolves in the hotset.
const hotsetSuggestMaxK = 8

// hotset is one generation's immutable precomputed answers.
type hotset struct {
	entries map[string]Encoded
	// prefix is the cache-key prefix of the generation the entries were
	// built for; PathBytes uses it to validate pathLen before clamping.
	prefix  string
	pathLen int
	bytes   int64
}

// buildHotset precomputes the hot answers for one study generation.
// packages == 0 (the empty placeholder a replica serves while awaiting
// a snapshot) builds only the importance table: derived metrics over an
// empty corpus are not meaningful, and the compute path answers the
// stray query.
func buildHotset(study *repro.Study, gen uint64, fingerprint string, packages int) *hotset {
	prefix := strconv.FormatUint(gen, 10)
	h := &hotset{entries: make(map[string]Encoded, 400), prefix: prefix}
	add := func(key string, status int, v any) {
		enc, err := encodeAnswer(status, etagFor(fingerprint, key), v)
		if err != nil {
			return // unencodable answers fall back to the compute path
		}
		h.entries[key] = enc
		h.bytes += int64(len(key)) + int64(len(enc.Body)) + int64(len(enc.ETag))
	}

	for _, sc := range linuxapi.Syscalls {
		res, status := buildImportance(study, gen, sc.Name)
		add(impKey(prefix, sc.Name), status, res)
	}
	if packages == 0 {
		return h
	}

	path := study.GreedyPath()
	h.pathLen = len(path)
	full := buildGreedyPrefix(path, gen, 0)
	full.Cached = true
	add(pathKey(prefix, 0), 200, full)

	warmCompat := CompatSystemsResult{
		Systems:    buildCompatRows(study),
		Generation: gen,
		Cached:     true,
	}
	add("compatq|"+prefix, 200, warmCompat)

	targets := append(append([]compat.System(nil), compat.Systems...), compat.GrapheneFixed)
	for _, sys := range targets {
		var names []string
		for _, api := range compat.SupportedSet(sys, path).Sorted() {
			names = append(names, api.Name)
		}
		known, unknown := normalizeSyscalls(names)
		wc := buildCompleteness(study, gen, known, unknown)
		wc.Cached = true
		add(wcKey(prefix, known, unknown), 200, wc)
		// A shorter suggest list is a prefix of a longer one, so one
		// list serves every k.
		sugg := buildSuggest(study, gen, known, unknown, hotsetSuggestMaxK)
		sugg.Cached = true
		all := sugg.Suggestions
		for k := 1; k <= hotsetSuggestMaxK; k++ {
			sugg.Suggestions = all[:min(k, len(all))]
			add(suggestKey(prefix, k, known, unknown), 200, sugg)
		}
	}
	return h
}
