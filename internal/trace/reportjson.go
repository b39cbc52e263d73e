package trace

import (
	"encoding/json"
	"io"

	"repro/internal/guest"
)

// Machine-readable report output (`aprof-trace verify -json`, `analyze
// -recover -json`). The reports' Go types carry error values and raw kind
// bytes; the JSON mirrors below render errors as strings and kinds as
// one-character strings ("R", "Y", "E", "F"), so the output is stable and
// parseable without knowledge of Go error types.

// blockInfoJSON mirrors BlockInfo for JSON output.
type blockInfoJSON struct {
	Offset     int64          `json:"offset"`
	Kind       string         `json:"kind"`
	PayloadLen int            `json:"payload_len"`
	Thread     guest.ThreadID `json:"thread,omitempty"`
	HasThread  bool           `json:"has_thread,omitempty"`
	Events     int            `json:"events,omitempty"`
	Names      int            `json:"names,omitempty"`
	Err        string         `json:"error,omitempty"`
}

// verifyReportJSON mirrors VerifyReport for JSON output.
type verifyReportJSON struct {
	Version     byte            `json:"version"`
	OK          bool            `json:"ok"`
	Segments    int             `json:"segments"`
	Events      int             `json:"events"`
	Threads     int             `json:"threads"`
	Bad         int             `json:"bad_blocks"`
	FooterValid bool            `json:"footer_valid"`
	Truncated   bool            `json:"truncated"`
	Blocks      []blockInfoJSON `json:"blocks,omitempty"`
}

// kindString renders a block kind byte for JSON ("E", "R", ...); a zero
// byte (no kind read before the stream ended) renders as "".
func kindString(k byte) string {
	if k == 0 {
		return ""
	}
	return string(rune(k))
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// WriteJSON writes the report as indented JSON: the per-block diagnostics
// with errors rendered as strings, plus the aggregate counts and the OK
// verdict. The encoding is stable across runs for the same input file.
func (vr *VerifyReport) WriteJSON(w io.Writer) error {
	out := verifyReportJSON{
		Version:     vr.Version,
		OK:          vr.OK(),
		Segments:    vr.Segments,
		Events:      vr.Events,
		Threads:     vr.Threads,
		Bad:         vr.Bad,
		FooterValid: vr.FooterValid,
		Truncated:   vr.Truncated,
	}
	for _, b := range vr.Blocks {
		out.Blocks = append(out.Blocks, blockInfoJSON{
			Offset:     b.Offset,
			Kind:       kindString(b.Kind),
			PayloadLen: b.PayloadLen,
			Thread:     b.Thread,
			HasThread:  b.HasThread,
			Events:     b.Events,
			Names:      b.Names,
			Err:        errString(b.Err),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// droppedBlockJSON mirrors DroppedBlock for JSON output.
type droppedBlockJSON struct {
	Offset    int64          `json:"offset"`
	Kind      string         `json:"kind"`
	Cause     string         `json:"cause"`
	Detail    string         `json:"detail,omitempty"`
	Thread    guest.ThreadID `json:"thread,omitempty"`
	HasThread bool           `json:"has_thread,omitempty"`
}

// recoveryReportJSON mirrors RecoveryReport for JSON output. The block
// accounting fields satisfy salvaged_blocks + dropped_blocks == blocks_seen,
// with dropped_by_cause summing to dropped_blocks — the same identity the
// Go report maintains.
type recoveryReportJSON struct {
	Version          byte               `json:"version"`
	Complete         bool               `json:"complete"`
	BlocksSeen       int                `json:"blocks_seen"`
	SalvagedBlocks   int                `json:"salvaged_blocks"`
	DroppedBlocks    int                `json:"dropped_blocks"`
	DroppedByCause   map[string]int     `json:"dropped_by_cause,omitempty"`
	SalvagedSegments int                `json:"salvaged_segments"`
	SalvagedEvents   int                `json:"salvaged_events"`
	PerThread        []ThreadRecovery   `json:"per_thread,omitempty"`
	Dropped          []droppedBlockJSON `json:"dropped,omitempty"`
	Truncated        bool               `json:"truncated"`
	FooterValid      bool               `json:"footer_valid"`
	ExpectedEvents   int                `json:"expected_events"`
}

// WriteJSON writes the report as indented JSON: salvage totals, per-thread
// counts, and every dropped block with its cause rendered as a string
// ("checksum", "truncated", "framing", "invalid").
func (r *RecoveryReport) WriteJSON(w io.Writer) error {
	out := recoveryReportJSON{
		Version:          r.Version,
		Complete:         r.Complete(),
		BlocksSeen:       r.BlocksSeen,
		SalvagedBlocks:   r.SalvagedBlocks,
		DroppedBlocks:    len(r.Dropped),
		SalvagedSegments: r.SalvagedSegments,
		SalvagedEvents:   r.SalvagedEvents,
		PerThread:        r.PerThread,
		Truncated:        r.Truncated,
		FooterValid:      r.FooterValid,
		ExpectedEvents:   r.ExpectedEvents,
	}
	if byCause := r.DroppedByCause(); len(byCause) > 0 {
		out.DroppedByCause = make(map[string]int, len(byCause))
		for c, n := range byCause {
			out.DroppedByCause[c.String()] = n
		}
	}
	for _, d := range r.Dropped {
		out.Dropped = append(out.Dropped, droppedBlockJSON{
			Offset:    d.Offset,
			Kind:      kindString(d.Kind),
			Cause:     d.Cause.String(),
			Detail:    d.Detail,
			Thread:    d.Thread,
			HasThread: d.HasThread,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
