package experiments

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
	"repro/internal/workloads"
)

func init() {
	registerExperiment("validation",
		"Trace & replay validation report: structural, correctness, determinism",
		runValidation)
}

// validationCase is one recorded workload execution the validation levels
// share.
type validationCase struct {
	name   string
	suite  string
	params workloads.Params
	inline []byte // canonical export of the inline profile
	tr     *trace.Trace
}

// runValidation emits the leveled validation report behind docs/VALIDATION.md
// as markdown: each level escalates from wire-format integrity to profile
// correctness and finally scheduling-independence. Regenerate the document
// with
//
//	go run ./cmd/aprof-experiments -run validation -raw -out docs/VALIDATION.md
func runValidation(cfg Config) error {
	w := cfg.Out
	scale := 1
	if !cfg.Quick {
		scale = 2
	}
	cases := []*validationCase{
		{name: "producer-consumer", suite: "micro", params: workloads.Params{Size: 24 * scale}},
		{name: "fig1a", suite: "micro", params: workloads.Params{Size: 16 * scale}},
		{name: "mysqld", suite: "mysql", params: workloads.Params{Size: 8 * scale, Threads: 4}},
		{name: "vips", suite: "parsec", params: workloads.Params{Size: 8 * scale, Threads: 3}},
		{name: "dedup", suite: "parsec", params: workloads.Params{Size: 8 * scale, Threads: 3}},
	}
	for _, c := range cases {
		prof := core.New(core.Options{})
		rec := trace.NewRecorder()
		if _, err := workloads.RunByName(c.name, c.params, prof, rec); err != nil {
			return fmt.Errorf("validation: recording %s: %w", c.name, err)
		}
		var err error
		if c.inline, err = prof.Profile().Export(); err != nil {
			return err
		}
		c.tr = rec.Trace()
	}

	fmt.Fprintf(w, "# Validation report\n\n")
	fmt.Fprintf(w, "Levels: **L1 structural** (wire format round-trips), **L2 correctness**\n")
	fmt.Fprintf(w, "(inline = sequential replay = parallel pipeline, byte-identical exports),\n")
	fmt.Fprintf(w, "**L3 determinism** (worker count, repetition and tie seed never change the\n")
	fmt.Fprintf(w, "result). Performance is measured by the end-to-end benchmark\n")
	fmt.Fprintf(w, "(`bash bench/run.sh`; see docs/PERFORMANCE.md). Regenerate with\n")
	fmt.Fprintf(w, "`go run ./cmd/aprof-experiments -run validation -raw -out docs/VALIDATION.md`.\n\n")

	if err := validateStructural(w, cases); err != nil {
		return err
	}
	if err := validateCorrectness(w, cases); err != nil {
		return err
	}
	return validateDeterminism(w, cases)
}

// validateStructural checks the binary codec (encode/decode round trip) and
// the shard combinator (split/combine identity, version-mismatch rejection)
// on every recorded trace.
func validateStructural(w io.Writer, cases []*validationCase) error {
	fmt.Fprintf(w, "## L1 — structural\n\n")
	fmt.Fprintf(w, "| workload | suite | events | threads | encoded bytes | decode round-trip | shard round-trip |\n")
	fmt.Fprintf(w, "|---|---|---:|---:|---:|---|---|\n")
	for _, c := range cases {
		var buf bytes.Buffer
		if _, err := c.tr.Encode(&buf); err != nil {
			return fmt.Errorf("validation: encoding %s: %w", c.name, err)
		}
		size := buf.Len()
		got, err := trace.Decode(&buf)
		if err != nil {
			return fmt.Errorf("validation: decoding %s: %w", c.name, err)
		}
		roundTrip := tracesEqual(c.tr, got)

		// Split the trace into per-thread shards and combine them back.
		shardOK := true
		var shards []*trace.Trace
		for i := range c.tr.Threads {
			shards = append(shards, &trace.Trace{
				Routines: c.tr.Routines,
				Syncs:    c.tr.Syncs,
				Threads:  c.tr.Threads[i : i+1],
			})
		}
		combined, err := trace.Combine(shards...)
		if err != nil || !mergedEqual(c.tr, combined) {
			shardOK = false
		}
		if len(shards) > 0 {
			bad := &trace.Trace{Version: 99, Routines: c.tr.Routines, Syncs: c.tr.Syncs}
			if _, err := trace.Combine(shards[0], bad); err == nil {
				shardOK = false // version mismatch must be rejected
			}
		}
		fmt.Fprintf(w, "| %s | %s | %d | %d | %d | %s | %s |\n",
			c.name, c.suite, c.tr.NumEvents(), len(c.tr.Threads), size, pass(roundTrip), pass(shardOK))
	}
	fmt.Fprintln(w)
	return nil
}

// validateCorrectness holds the three analyzers to byte-identical exports.
func validateCorrectness(w io.Writer, cases []*validationCase) error {
	fmt.Fprintf(w, "## L2 — correctness (differential)\n\n")
	fmt.Fprintf(w, "Inline profile vs sequential replay (`core.FromTrace`) vs parallel\n")
	fmt.Fprintf(w, "pipeline (`pipeline.Analyze`, 4 workers), compared on `Profile.Export`.\n\n")
	fmt.Fprintf(w, "| workload | suite | routines | inline = replay | inline = pipeline |\n")
	fmt.Fprintf(w, "|---|---|---:|---|---|\n")
	for _, c := range cases {
		seq, err := core.FromTrace(c.tr, 1, core.Options{})
		if err != nil {
			return err
		}
		seqB, err := seq.Export()
		if err != nil {
			return err
		}
		par, err := pipeline.Analyze(c.tr, pipeline.Options{TieSeed: 1, Workers: 4})
		if err != nil {
			return err
		}
		parB, err := par.Export()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "| %s | %s | %d | %s | %s |\n", c.name, c.suite, len(seq.Routines),
			pass(bytes.Equal(seqB, c.inline)), pass(bytes.Equal(parB, c.inline)))
	}
	fmt.Fprintln(w)
	return nil
}

// validateDeterminism re-analyzes one plan at several worker counts, re-runs
// it, and varies the tie seed (machine timestamps are unique, so the seed
// must not matter).
func validateDeterminism(w io.Writer, cases []*validationCase) error {
	fmt.Fprintf(w, "## L3 — determinism\n\n")
	fmt.Fprintf(w, "| workload | workers 1/2/4/8 identical | repeated run identical | tie-seed invariant |\n")
	fmt.Fprintf(w, "|---|---|---|---|\n")
	for _, c := range cases {
		workersOK := true
		var first []byte
		for _, workers := range []int{1, 2, 4, 8} {
			p, err := pipeline.Analyze(c.tr, pipeline.Options{Workers: workers})
			if err != nil {
				return err
			}
			b, err := p.Export()
			if err != nil {
				return err
			}
			if first == nil {
				first = b
			} else if !bytes.Equal(first, b) {
				workersOK = false
			}
		}

		plan, err := pipeline.BuildPlan(c.tr, 0, core.Options{})
		if err != nil {
			return err
		}
		repeatOK := true
		for i := 0; i < 3; i++ {
			p, err := plan.Run(4)
			if err != nil {
				return err
			}
			b, err := p.Export()
			if err != nil {
				return err
			}
			if !bytes.Equal(first, b) {
				repeatOK = false
			}
		}

		seedOK := true
		for _, seed := range []int64{1, 42} {
			p, err := pipeline.Analyze(c.tr, pipeline.Options{TieSeed: seed, Workers: 2})
			if err != nil {
				return err
			}
			b, err := p.Export()
			if err != nil {
				return err
			}
			if !bytes.Equal(first, b) {
				seedOK = false
			}
		}
		fmt.Fprintf(w, "| %s | %s | %s | %s |\n", c.name, pass(workersOK), pass(repeatOK), pass(seedOK))
	}
	fmt.Fprintln(w)
	return nil
}

func pass(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

// tracesEqual compares two traces field by field.
func tracesEqual(a, b *trace.Trace) bool {
	if a.EffectiveVersion() != b.EffectiveVersion() ||
		len(a.Routines) != len(b.Routines) || len(a.Syncs) != len(b.Syncs) ||
		len(a.Threads) != len(b.Threads) {
		return false
	}
	for i := range a.Routines {
		if a.Routines[i] != b.Routines[i] {
			return false
		}
	}
	for i := range a.Syncs {
		if a.Syncs[i] != b.Syncs[i] {
			return false
		}
	}
	for i := range a.Threads {
		at, bt := &a.Threads[i], &b.Threads[i]
		if at.ID != bt.ID || len(at.Events) != len(bt.Events) {
			return false
		}
		for j := range at.Events {
			if at.Events[j] != bt.Events[j] {
				return false
			}
		}
	}
	return true
}

// mergedEqual compares the merged event streams of two traces by a digest
// of each, streamed without materializing either.
func mergedEqual(a, b *trace.Trace) bool {
	return a.NumEvents() == b.NumEvents() && mergedDigest(a) == mergedDigest(b)
}

// mergedDigest hashes the events of tr in merged order. The thread of each
// event is part of its line, so the synthesized switches are covered.
func mergedDigest(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	trace.Walk(tr, 7, func(_, _ int, e *trace.Event) { fmt.Fprintln(h, *e) })
	return h.Sum64()
}
