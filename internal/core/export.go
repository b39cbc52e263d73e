package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/guest"
)

// ProfileDump is the serializable form of a Profile, stable across versions:
// routines sorted by name, threads and points sorted numerically.
type ProfileDump struct {
	Version         int           `json:"version"`
	InducedThread   uint64        `json:"induced_thread"`
	InducedExternal uint64        `json:"induced_external"`
	Routines        []RoutineDump `json:"routines"`
}

// RoutineDump serializes one routine's thread-sensitive profiles.
type RoutineDump struct {
	Name    string       `json:"name"`
	Threads []ThreadDump `json:"threads"`
}

// ThreadDump serializes one (routine, thread) activation aggregate.
type ThreadDump struct {
	Thread          int32       `json:"thread"`
	Calls           uint64      `json:"calls"`
	SumCost         uint64      `json:"sum_cost"`
	SumTRMS         uint64      `json:"sum_trms"`
	SumRMS          uint64      `json:"sum_rms"`
	InducedThread   uint64      `json:"induced_thread"`
	InducedExternal uint64      `json:"induced_external"`
	ByTRMS          []PointDump `json:"by_trms"`
	ByRMS           []PointDump `json:"by_rms"`
}

// PointDump serializes one input-size bucket.
type PointDump struct {
	N       uint64 `json:"n"`
	Calls   uint64 `json:"calls"`
	MinCost uint64 `json:"min_cost"`
	MaxCost uint64 `json:"max_cost"`
	SumCost uint64 `json:"sum_cost"`
}

const dumpVersion = 1

// Dump converts the profile to its serializable form.
func (p *Profile) Dump() *ProfileDump {
	d := &ProfileDump{
		Version:         dumpVersion,
		InducedThread:   p.InducedThread,
		InducedExternal: p.InducedExternal,
	}
	for _, name := range p.RoutineNames() {
		rp := p.Routines[name]
		rd := RoutineDump{Name: name}
		for _, tid := range rp.ThreadIDs() {
			a := rp.PerThread[tid]
			rd.Threads = append(rd.Threads, ThreadDump{
				Thread:          int32(tid),
				Calls:           a.Calls,
				SumCost:         a.SumCost,
				SumTRMS:         a.SumTRMS,
				SumRMS:          a.SumRMS,
				InducedThread:   a.InducedThread,
				InducedExternal: a.InducedExternal,
				ByTRMS:          dumpPoints(a.ByTRMS),
				ByRMS:           dumpPoints(a.ByRMS),
			})
		}
		d.Routines = append(d.Routines, rd)
	}
	return d
}

func dumpPoints(m map[uint64]*Point) []PointDump {
	out := make([]PointDump, 0, len(m))
	for _, pt := range m {
		out = append(out, PointDump{N: pt.N, Calls: pt.Calls, MinCost: pt.MinCost, MaxCost: pt.MaxCost, SumCost: pt.SumCost})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].N < out[j].N })
	return out
}

// Restore rebuilds a Profile from its serializable form.
func (d *ProfileDump) Restore() (*Profile, error) {
	if d.Version != dumpVersion {
		return nil, fmt.Errorf("core: unsupported profile dump version %d", d.Version)
	}
	p := newProfile()
	p.InducedThread = d.InducedThread
	p.InducedExternal = d.InducedExternal
	for _, rd := range d.Routines {
		rp := &RoutineProfile{Name: rd.Name, PerThread: make(map[guest.ThreadID]*Activations)}
		p.Routines[rd.Name] = rp
		for _, td := range rd.Threads {
			a := newActivations(guest.ThreadID(td.Thread))
			a.Calls = td.Calls
			a.SumCost = td.SumCost
			a.SumTRMS = td.SumTRMS
			a.SumRMS = td.SumRMS
			a.InducedThread = td.InducedThread
			a.InducedExternal = td.InducedExternal
			for _, pd := range td.ByTRMS {
				a.ByTRMS[pd.N] = &Point{N: pd.N, Calls: pd.Calls, MinCost: pd.MinCost, MaxCost: pd.MaxCost, SumCost: pd.SumCost}
			}
			for _, pd := range td.ByRMS {
				a.ByRMS[pd.N] = &Point{N: pd.N, Calls: pd.Calls, MinCost: pd.MinCost, MaxCost: pd.MaxCost, SumCost: pd.SumCost}
			}
			rp.PerThread[guest.ThreadID(td.Thread)] = a
		}
	}
	return p, nil
}

// Export serializes the profile to its canonical byte form: the indented
// JSON of Dump, with routines sorted by name and threads and points sorted
// numerically. Two profiles with equal contents export byte-identically, so
// Export equality is the strongest practical profile-equality check — the
// differential tests between inline, sequential-replay and parallel-replay
// profiling compare Export outputs.
func (p *Profile) Export() ([]byte, error) {
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// WriteJSON serializes the profile as indented JSON.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Dump())
}

// ReadJSON deserializes a profile written by WriteJSON.
func ReadJSON(r io.Reader) (*Profile, error) {
	var d ProfileDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("core: decoding profile JSON: %w", err)
	}
	return d.Restore()
}
