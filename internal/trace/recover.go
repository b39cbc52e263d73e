package trace

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/guest"
)

// DropCause classifies why Recover dropped part of a damaged trace.
type DropCause int

// Drop causes, from most to least common in practice.
const (
	// DropChecksum: the block's CRC32-C did not match (bit rot, torn
	// write); framing was intact, so the scan continued past it.
	DropChecksum DropCause = iota
	// DropTruncated: the input ended in the middle of the block (killed
	// recording run, short copy).
	DropTruncated
	// DropFraming: the block header itself was unreadable (unknown kind
	// byte or implausible length); nothing after it can be trusted.
	DropFraming
	// DropInvalid: the checksum verified but the payload did not parse —
	// an encoder bug or a deliberately malformed file.
	DropInvalid
	// DropAddress: the checksum verified but a memory access in the segment
	// lies outside the analysed address space (an *AddressError).
	DropAddress
)

// String renders the cause as a short diagnostic word.
func (c DropCause) String() string {
	switch c {
	case DropChecksum:
		return "checksum"
	case DropTruncated:
		return "truncated"
	case DropFraming:
		return "framing"
	case DropInvalid:
		return "invalid"
	case DropAddress:
		return "address"
	}
	return fmt.Sprintf("DropCause(%d)", int(c))
}

// DroppedBlock records one block Recover could not salvage.
type DroppedBlock struct {
	// Offset is the file offset of the block's kind byte.
	Offset int64
	// Kind is the block kind byte ('R', 'Y', 'E', 'A', 'F'), or 0 when the
	// stream ended before one was read.
	Kind byte
	// Cause classifies the failure.
	Cause DropCause
	// Detail is a human-readable elaboration.
	Detail string
	// Thread is the best-effort thread attribution of a dropped event
	// segment, parsed from the (untrusted) payload; valid only when
	// HasThread is set.
	Thread guest.ThreadID
	// HasThread reports whether Thread could be parsed.
	HasThread bool
}

// ThreadRecovery is the per-thread salvage outcome.
type ThreadRecovery struct {
	// ID is the guest thread id.
	ID guest.ThreadID
	// Segments and Events count what was salvaged for the thread.
	Segments int
	// Events is the number of salvaged events.
	Events int
}

// RecoveryReport describes exactly what Recover salvaged and what it
// dropped from a damaged trace. Its block accounting is self-consistent by
// construction: every block the scan encountered is either salvaged or
// listed in Dropped, so SalvagedBlocks + len(Dropped) == BlocksSeen always
// holds (the fault-injection tests assert it on every damaged input).
type RecoveryReport struct {
	// Version is the trace's wire-format version byte.
	Version byte
	// BlocksSeen counts every block the salvage scan encountered —
	// salvaged or dropped, of any kind — up to the point the scan stopped.
	BlocksSeen int
	// SalvagedBlocks counts the blocks consumed intact (name tables,
	// event segments and the footer). BlocksSeen - SalvagedBlocks ==
	// len(Dropped).
	SalvagedBlocks int
	// SalvagedSegments and SalvagedEvents count the intact segments and
	// their events across all threads.
	SalvagedSegments int
	// SalvagedEvents is the total salvaged event count.
	SalvagedEvents int
	// PerThread lists per-thread salvaged counts, in the threads' order of
	// first appearance in the file.
	PerThread []ThreadRecovery
	// Dropped lists every block that could not be salvaged, with its file
	// offset and failure cause.
	Dropped []DroppedBlock
	// Truncated reports that the input ended unexpectedly: mid-block, or
	// at a block boundary but without a valid footer.
	Truncated bool
	// FooterValid reports that an intact footer block was found.
	FooterValid bool
	// ExpectedEvents is the total event count the footer claims, or -1
	// when no intact footer was found.
	ExpectedEvents int
}

// Complete reports whether the trace was salvaged in full: nothing dropped,
// no truncation, and an intact footer. A footer that disagrees with an
// otherwise intact stream, and bytes after the footer, are reported as
// dropped blocks, so Complete implies that Decode accepts the trace.
func (r *RecoveryReport) Complete() bool {
	return r.FooterValid && !r.Truncated && len(r.Dropped) == 0
}

// DroppedByCause tallies the dropped blocks by failure cause. The sum of
// the counts equals len(Dropped), so together with SalvagedBlocks the
// per-cause tallies account for every block seen.
func (r *RecoveryReport) DroppedByCause() map[DropCause]int {
	if len(r.Dropped) == 0 {
		return nil
	}
	m := make(map[DropCause]int)
	for _, d := range r.Dropped {
		m[d.Cause]++
	}
	return m
}

// String renders a multi-line human-readable summary of the recovery.
func (r *RecoveryReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "recovered %d events in %d segments across %d threads",
		r.SalvagedEvents, r.SalvagedSegments, len(r.PerThread))
	if r.BlocksSeen > 0 {
		fmt.Fprintf(&sb, " [%d/%d blocks intact]", r.SalvagedBlocks, r.BlocksSeen)
	}
	switch {
	case r.Complete():
		sb.WriteString(" (trace intact)")
	case r.FooterValid && r.ExpectedEvents >= 0:
		fmt.Fprintf(&sb, " (footer expects %d events; %d lost)", r.ExpectedEvents, r.ExpectedEvents-r.SalvagedEvents)
	case r.Truncated:
		sb.WriteString(" (trace truncated: no footer)")
	}
	for _, d := range r.Dropped {
		fmt.Fprintf(&sb, "\ndropped block at offset %d", d.Offset)
		if d.Kind != 0 {
			fmt.Fprintf(&sb, " (kind %q", d.Kind)
			if d.HasThread {
				fmt.Fprintf(&sb, ", thread %d", d.Thread)
			}
			sb.WriteString(")")
		}
		fmt.Fprintf(&sb, ": %s", d.Cause)
		if d.Detail != "" {
			fmt.Fprintf(&sb, ": %s", d.Detail)
		}
	}
	return sb.String()
}

// Recover reads as much of a damaged trace as possible: every segment
// whose checksum verifies is salvaged, and the report records what was
// dropped and why (checksum mismatch vs. truncation vs. framing damage,
// with file offsets). The returned trace contains all intact segments in
// file order and feeds through Replay and the analysis pipeline
// unchanged. Recover never panics on arbitrary input.
//
// An error is returned only when the input cannot be identified as a trace
// at all (bad magic, unsupported version). Otherwise the error is nil and
// the report, which is always non-nil in that case, describes the salvage,
// even when nothing was salvageable.
func Recover(r io.Reader) (*Trace, *RecoveryReport, error) {
	defer tallyDecode(time.Now())
	data, err := readTrace(r)
	if err != nil {
		return nil, nil, err
	}
	s := scanTrace(data, scanSalvage)
	rep := &RecoveryReport{Version: formatVersion, BlocksSeen: len(s.blocks), Truncated: s.truncated, ExpectedEvents: -1}
	if s.footer >= 0 {
		rep.FooterValid = true
		rep.ExpectedEvents = int(s.fe)
	}
	segs := make([]int, len(s.threads))
	for i := range s.blocks {
		b := &s.blocks[i]
		if b.err != nil {
			rep.Dropped = append(rep.Dropped, b.dropped())
			continue
		}
		rep.SalvagedBlocks++
		if b.Kind == blockEvents {
			segs[b.slot]++
			rep.SalvagedSegments++
			rep.SalvagedEvents += b.n
		}
	}
	tr := s.trace()
	if !rep.Complete() {
		// Salvaged stamp annotations may reference writes that happened in
		// lost segments, so they are only trustworthy when nothing was lost:
		// a lossy recovery drops them, so analysis annotates the salvaged
		// events offline rather than risk a wrong profile.
		tr.StripAnnotations()
	}
	for _, k := range s.order {
		t := &s.threads[k]
		rep.PerThread = append(rep.PerThread, ThreadRecovery{ID: t.id, Segments: segs[k], Events: len(t.events)})
	}
	return tr, rep, nil
}

// dropped describes a bad block as Recover reports it.
func (b *scanBlock) dropped() DroppedBlock {
	d := DroppedBlock{Offset: int64(b.Off), Kind: b.Kind, Cause: DropInvalid, Detail: b.err.Error(), Thread: b.id, HasThread: b.hasID}
	var addrErr *AddressError
	switch {
	case errors.As(b.err, &addrErr):
		d.Cause = DropAddress
	case errors.Is(b.err, block.ErrFraming):
		d.Cause = DropFraming
	case errors.Is(b.err, block.ErrTruncated):
		d.Cause = DropTruncated
	case errors.Is(b.err, block.ErrChecksum):
		d.Cause = DropChecksum
	}
	if (b.Kind == blockRoutines || b.Kind == blockSyncs) && (d.Cause == DropChecksum || d.Cause == DropInvalid) {
		// A lost table delta makes every later name id unresolvable, so
		// salvage stopped here rather than misattribute routines.
		d.Detail += "; name-table delta lost, recovery stopped"
	}
	return d
}

// BlockInfo is one block's diagnostics from a Verify walk.
type BlockInfo struct {
	// Offset is the file offset of the block's kind byte.
	Offset int64
	// Kind is the block kind byte.
	Kind byte
	// PayloadLen is the declared payload length in bytes.
	PayloadLen int
	// Thread and Events describe an intact event segment; HasThread marks
	// Thread as valid.
	Thread guest.ThreadID
	// HasThread reports whether Thread is valid.
	HasThread bool
	// Events is the segment's event count (intact event blocks only).
	Events int
	// Names is the table delta's entry count (intact R/Y blocks only).
	Names int
	// Runs is the annotation block's run count (intact 'A' blocks only).
	Runs int
	// Stamps is the annotation block's stamp count (intact 'A' blocks only).
	Stamps int
	// Err is nil for an intact block, else the reason it is bad.
	Err error
}

// VerifyReport is the result of a checksum walk over a trace file.
type VerifyReport struct {
	// Version is the trace's wire-format version byte.
	Version byte
	// Blocks lists per-block diagnostics in file order.
	Blocks []BlockInfo
	// Segments, Events and Threads count the intact event blocks, their
	// events, and the distinct thread ids seen in them.
	Segments int
	// Events is the total intact event count.
	Events int
	// Threads is the number of distinct thread ids in intact segments.
	Threads int
	// Annotations counts the intact stamp-annotation ('A') blocks.
	Annotations int
	// Bad counts blocks with a non-nil Err.
	Bad int
	// FooterValid reports an intact, well-formed footer block.
	FooterValid bool
	// Truncated reports that the input ended unexpectedly.
	Truncated bool
}

// Intact counts the blocks that verified clean. Every walked block is
// either intact or counted in Bad, so Intact() + Bad == len(Blocks): the
// same accounting identity RecoveryReport maintains with SalvagedBlocks.
func (vr *VerifyReport) Intact() int { return len(vr.Blocks) - vr.Bad }

// OK reports whether the trace verified clean: every block was intact and
// the footer was present, agreed with the stream and was last. OK implies
// that Decode accepts the trace.
func (vr *VerifyReport) OK() bool {
	return vr.Bad == 0 && vr.FooterValid && !vr.Truncated
}

// Verify walks a trace file's blocks, checking every checksum and parsing
// every payload without materializing events, and reports per-block
// diagnostics. Unlike Recover it keeps scanning past corrupt name-table
// blocks (it resolves no ids), and stops only at framing damage or
// truncation. A footer whose counts disagree with an otherwise intact
// stream, and bytes after the footer, count as bad blocks.
func Verify(r io.Reader) (*VerifyReport, error) {
	defer tallyDecode(time.Now())
	data, err := readTrace(r)
	if err != nil {
		return nil, err
	}
	s := scanTrace(data, scanVerify)
	vr := &VerifyReport{Version: formatVersion, Blocks: make([]BlockInfo, len(s.blocks)), Threads: len(s.order),
		FooterValid: s.footer >= 0, Truncated: s.truncated}
	for i := range s.blocks {
		b := &s.blocks[i]
		info := &vr.Blocks[i]
		*info = BlockInfo{Offset: int64(b.Off), Kind: b.Kind, PayloadLen: len(b.Payload), Err: b.err}
		if b.err != nil {
			vr.Bad++
			continue
		}
		switch b.Kind {
		case blockRoutines, blockSyncs:
			info.Names = b.n
		case blockEvents:
			info.Thread, info.HasThread, info.Events = b.id, true, b.n
			vr.Segments++
			vr.Events += b.n
		case blockAnnotations:
			info.Thread, info.HasThread, info.Runs, info.Stamps = b.id, true, b.n, b.ns
			vr.Annotations++
		}
	}
	return vr, nil
}
