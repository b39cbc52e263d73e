package trace_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/ispl"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
)

// TestQuickEncodeDecodeRoundTrip: arbitrary well-formed traces survive the
// binary codec bit-exactly.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(names []string, raw []struct {
		Tid   uint8
		Kind  uint8
		Delta uint16
		Arg   uint32
		Aux   uint16
	}) bool {
		tr := &trace.Trace{}
		for _, n := range names {
			if len(n) > 1<<10 {
				n = n[:1<<10]
			}
			tr.Routines = append(tr.Routines, n)
			tr.Syncs = append(tr.Syncs, n+"-sync")
		}
		perTh := make(map[guest.ThreadID]*trace.ThreadTrace)
		var order []guest.ThreadID
		clock := make(map[guest.ThreadID]uint64)
		for _, r := range raw {
			tid := guest.ThreadID(r.Tid%5) + 1
			tt := perTh[tid]
			if tt == nil {
				tt = &trace.ThreadTrace{ID: tid}
				perTh[tid] = tt
				order = append(order, tid)
			}
			clock[tid] += uint64(r.Delta)
			k, arg := trace.Kind(r.Kind%uint8(trace.KindSwitch+1)), uint64(r.Arg)
			if k == trace.KindCall || k == trace.KindReturn {
				// A well-formed call or return names a routine in the table.
				if len(tr.Routines) == 0 {
					k = trace.KindAlloc
				} else {
					arg %= uint64(len(tr.Routines))
				}
			}
			aux := uint64(r.Aux)
			if k.IsMemory() {
				aux = 0 // the wire uses a memory record's aux for its run length
			}
			tt.Events = append(tt.Events, trace.Event{
				TS:     clock[tid],
				Thread: tid,
				Kind:   k,
				Arg:    arg,
				Aux:    aux,
			})
		}
		for _, tid := range order {
			tr.Threads = append(tr.Threads, *perTh[tid])
		}

		var buf bytes.Buffer
		if _, err := tr.EncodeUnchecked(&buf); err != nil {
			return false
		}
		got, err := trace.Decode(&buf)
		if err != nil {
			return false
		}
		if len(got.Routines) != len(tr.Routines) || len(got.Threads) != len(tr.Threads) {
			return false
		}
		for i := range tr.Routines {
			if got.Routines[i] != tr.Routines[i] || got.Syncs[i] != tr.Syncs[i] {
				return false
			}
		}
		for i := range tr.Threads {
			a, b := tr.Threads[i], got.Threads[i]
			if a.ID != b.ID || len(a.Events) != len(b.Events) {
				return false
			}
			for j := range a.Events {
				if a.Events[j] != b.Events[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickMergeIsStablePartition: merging preserves each thread's event
// subsequence exactly, for any tie seed.
func TestQuickMergeIsStablePartition(t *testing.T) {
	f := func(raw []struct {
		Tid   uint8
		Delta uint8
	}, seed int64) bool {
		tr := &trace.Trace{Routines: []string{"r"}}
		perTh := make(map[guest.ThreadID]*trace.ThreadTrace)
		var order []guest.ThreadID
		clock := make(map[guest.ThreadID]uint64)
		for i, r := range raw {
			tid := guest.ThreadID(r.Tid%4) + 1
			tt := perTh[tid]
			if tt == nil {
				tt = &trace.ThreadTrace{ID: tid}
				perTh[tid] = tt
				order = append(order, tid)
			}
			clock[tid] += uint64(r.Delta)
			tt.Events = append(tt.Events, trace.Event{TS: clock[tid], Thread: tid, Kind: trace.KindRead, Arg: uint64(i)})
		}
		for _, tid := range order {
			tr.Threads = append(tr.Threads, *perTh[tid])
		}

		merged := trace.Merge(tr, seed)
		// Project the merged trace back per thread and compare.
		got := make(map[guest.ThreadID][]trace.Event)
		var prevTS uint64
		for _, e := range merged {
			if e.TS < prevTS {
				return false // total order violated
			}
			prevTS = e.TS
			if e.Kind == trace.KindSwitch {
				continue
			}
			got[e.Thread] = append(got[e.Thread], e)
		}
		for tid, tt := range perTh {
			if len(got[tid]) != len(tt.Events) {
				return false
			}
			for j := range tt.Events {
				if got[tid][j] != tt.Events[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// genISPL renders a small randomized ISPL program: a shared array touched by
// spawned workers and a divide-and-conquer recursion, with optional locking
// and device I/O (kernel writes feed external induced input, device output
// performs kernel reads). Every generated program is valid and terminates.
func genISPL(size, nworkers, depth int, useLock, useIO bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "var a[%d];\nvar acc[%d];\n", size, nworkers)
	if useLock {
		b.WriteString("lock l;\n")
	}
	b.WriteString(`
		func touch(lo, hi) {
			var i = lo;
			var s = 0;
			while (i < hi) { s = s + a[i]; a[i] = s + 1; i = i + 1; }
			return s;
		}
		func rec(d, lo, hi) {
			if (d <= 0 || hi - lo < 2) { return touch(lo, hi); }
			var mid = lo + (hi - lo) / 2;
			return rec(d - 1, lo, mid) + rec(d - 1, mid, hi);
		}
	`)
	chunk := size / nworkers
	b.WriteString("func work(w) {\n")
	fmt.Fprintf(&b, "\tvar s = touch(w * %d, w * %d + %d);\n", chunk, chunk, chunk)
	if useLock {
		b.WriteString("\tacquire(l);\n\tacc[w] = s;\n\trelease(l);\n")
	} else {
		b.WriteString("\tacc[w] = s;\n")
	}
	b.WriteString("\treturn s;\n}\n")
	b.WriteString("func main() {\n")
	if useIO {
		fmt.Fprintf(&b, "\tread(a, 0, %d);\n", size)
	}
	for w := 0; w < nworkers; w++ {
		fmt.Fprintf(&b, "\tvar t%d = spawn work(%d);\n", w, w)
	}
	for w := 0; w < nworkers; w++ {
		fmt.Fprintf(&b, "\tjoin t%d;\n", w)
	}
	fmt.Fprintf(&b, "\tprint(rec(%d, 0, %d));\n", depth, size)
	if useIO {
		fmt.Fprintf(&b, "\twrite(acc, 0, %d);\n", nworkers)
	}
	b.WriteString("}\n")
	return b.String()
}

// TestQuickPipelineWorkersISPL: for randomized ISPL programs, the parallel
// trace-replay pipeline yields an export byte-identical to the inline
// profiler's at every worker count in {1, 2, 4, 8}.
func TestQuickPipelineWorkersISPL(t *testing.T) {
	f := func(rawSize, rawWorkers, rawDepth, rawSlice uint8, useLock, useIO bool) bool {
		size := 8 + int(rawSize)%56
		nworkers := 2 + int(rawWorkers)%3
		depth := int(rawDepth) % 4
		src := genISPL(size, nworkers, depth, useLock, useIO)

		prof := core.New(core.Options{})
		rec := trace.NewRecorder()
		cfg := guest.Config{Timeslice: 3 + int(rawSlice)%9, Tools: []guest.Tool{prof, rec}}
		if _, _, err := ispl.RunSource(src, cfg); err != nil {
			t.Logf("generated program failed: %v\n%s", err, src)
			return false
		}
		want, err := prof.Profile().Export()
		if err != nil {
			return false
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := pipeline.Analyze(rec.Trace(), pipeline.Options{TieSeed: 7, Workers: workers})
			if err != nil {
				return false
			}
			b, err := got.Export()
			if err != nil || !bytes.Equal(b, want) {
				t.Logf("pipeline with %d workers diverges on:\n%s", workers, src)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickBatchedDispatchISPL: for randomized ISPL programs, running the
// machine on its default 256-event ring produces a recorded trace and a
// profile export byte-identical to a ring that flushes every two events
// (Config.BatchMax 2): the recorder stamps each batched event from the
// batch's start timestamp, which must not depend on where batches are cut.
func TestQuickBatchedDispatchISPL(t *testing.T) {
	f := func(rawSize, rawWorkers, rawDepth, rawSlice uint8, useLock, useIO bool) bool {
		size := 8 + int(rawSize)%56
		nworkers := 2 + int(rawWorkers)%3
		depth := int(rawDepth) % 4
		src := genISPL(size, nworkers, depth, useLock, useIO)
		timeslice := 3 + int(rawSlice)%9

		run := func(batchMax int) ([]byte, []byte) {
			prof := core.New(core.Options{})
			var buf bytes.Buffer
			rec := trace.NewStreamRecorder(&buf)
			cfg := guest.Config{
				Timeslice: timeslice,
				Tools:     []guest.Tool{prof, rec},
				BatchMax:  batchMax,
			}
			if _, _, err := ispl.RunSource(src, cfg); err != nil {
				t.Logf("generated program failed: %v\n%s", err, src)
				return nil, nil
			}
			export, err := prof.Profile().Export()
			if err != nil {
				return nil, nil
			}
			if err := rec.Close(); err != nil {
				return nil, nil
			}
			return export, buf.Bytes()
		}

		wantProfile, wantTrace := run(2)
		gotProfile, gotTrace := run(0)
		if wantProfile == nil || gotProfile == nil {
			return false
		}
		if !bytes.Equal(wantProfile, gotProfile) {
			t.Logf("batched profile diverges on:\n%s", src)
			return false
		}
		if !bytes.Equal(wantTrace, gotTrace) {
			t.Logf("batched recorded trace diverges on:\n%s", src)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
