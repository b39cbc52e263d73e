package trace

import "fmt"

// Combine joins several trace shards — recordings of disjoint thread subsets
// of one execution, e.g. produced by per-process recorders sharing one
// machine clock — into a single trace that merges and replays exactly as a
// monolithic recording would.
//
// All shards must carry the same wire-format version; a mismatch is rejected
// with a *VersionError (previously such mismatches were silently accepted by
// downstream merging, producing garbage interleavings). The shards must also
// agree on their routine and sync name tables — ids are meaningful only
// relative to those tables — and must not repeat a thread id.
//
// Combining one shard preserves its stamp annotations (one recorder saw the
// whole merged order, so they stay trustworthy and the fast annotated
// analysis route stays available); combining several drops them, since the
// cross-shard interleaving is re-derived by the merge. Combining zero
// shards yields an empty trace at the current format version.
func Combine(shards ...*Trace) (*Trace, error) {
	if len(shards) == 0 {
		// An explicit current-version empty trace: Version 0 would be
		// resolved as "current" by EffectiveVersion, but an explicit value
		// keeps the combined result encodable and comparable without that
		// special case.
		return &Trace{Version: formatVersion}, nil
	}
	first := shards[0]
	out := &Trace{
		Version:  first.Version,
		Routines: append([]string(nil), first.Routines...),
		Syncs:    append([]string(nil), first.Syncs...),
	}
	// A single shard is already the whole execution: its recorder saw every
	// event in merged order, so its stamp annotations are exactly as
	// trustworthy as in the original trace, and stripping them would
	// needlessly force analysis through an offline Annotate pass. Across
	// shards the interleaving is re-derived by the merge, so per-shard
	// annotations are not trustworthy and are dropped.
	keepAnn := len(shards) == 1
	if keepAnn {
		out.Annotated = first.Annotated
	}
	seen := make(map[int32]bool)
	for i, sh := range shards {
		if v := sh.EffectiveVersion(); v != first.EffectiveVersion() {
			return nil, &VersionError{Want: first.EffectiveVersion(), Got: v}
		}
		if i > 0 {
			if err := sameTable("routine", first.Routines, sh.Routines); err != nil {
				return nil, fmt.Errorf("trace: combining shard %d: %w", i, err)
			}
			if err := sameTable("sync", first.Syncs, sh.Syncs); err != nil {
				return nil, fmt.Errorf("trace: combining shard %d: %w", i, err)
			}
		}
		for j := range sh.Threads {
			id := int32(sh.Threads[j].ID)
			if seen[id] {
				return nil, fmt.Errorf("trace: combining shard %d: duplicate thread id %d", i, id)
			}
			seen[id] = true
			tt := sh.Threads[j]
			if !keepAnn {
				tt.Ann = nil
			}
			out.Threads = append(out.Threads, tt)
		}
	}
	return out, nil
}

func sameTable(what string, a, b []string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s tables differ: %d vs %d entries", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("%s tables differ at id %d: %q vs %q", what, i, a[i], b[i])
		}
	}
	return nil
}
