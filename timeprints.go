// Package timeprints is the public API of the timeprints tracing
// library — a reproduction of "Temporal Tracing of On-Chip Signals
// using Timeprints" (Massoud et al., DAC 2019).
//
// # Concepts
//
// Tracing is organized in back-to-back trace-cycles of m clock-cycles.
// Each clock-cycle i carries a fixed b-bit encoded timestamp TS(i).
// When the traced signal changes value in cycle i, TS(i) is XORed into
// a hold register; at the end of the trace-cycle the register value —
// the timeprint TP — and the change count k are logged: a constant
// b + ⌈log2(m+1)⌉ bits per trace-cycle regardless of activity.
//
// Offline, the exact change instants are recovered by solving the
// signal reconstruction problem (all weight-k solutions of A·x = TP
// over F2) with the built-in CDCL SAT solver and its native XOR
// clauses, pruned by temporal properties known to hold.
//
// # Quick start
//
//	enc, _ := timeprints.NewEncoding(1024, 24)     // LI-4 timestamps
//	logger := timeprints.NewLogger(enc)
//	for _, v := range wireSamples {
//	    if entry, done := logger.TickValue(v); done {
//	        store(entry)                            // b+11 bits
//	    }
//	}
//	// later, in the postmortem phase:
//	rec, _ := timeprints.NewReconstructor(enc, entry, nil, timeprints.Options{})
//	signals, complete, err := rec.EnumerateStrict(0)
//
// The subpackages under internal implement the substrates: the SAT
// solver (internal/sat), F2 linear algebra (internal/gf2), the CAN bus
// model (internal/can), and the LEON3-style SoC with the agg-log
// hardware (internal/soc and friends). The examples directory shows
// the paper's didactic Figure 4 walk-through and both evaluation
// scenarios end-to-end.
package timeprints

import (
	"io"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/monitor"
	"repro/internal/properties"
	"repro/internal/reconstruct"
	"repro/internal/sat"
	"repro/internal/trace"
)

// Core types.
type (
	// Signal is a trace-cycle change-map: bit i set means the traced
	// wire changed value in clock-cycle i.
	Signal = core.Signal
	// LogEntry is the logged (TP, k) pair of one trace-cycle.
	LogEntry = core.LogEntry
	// Logger streams wire samples into log entries (the software model
	// of the agg-log hardware).
	Logger = core.Logger
	// Encoding maps clock-cycles to timestamps.
	Encoding = encoding.Encoding
	// Vector is a bit vector over F2.
	Vector = bitvec.Vector
	// Reconstructor solves the signal reconstruction problem for one
	// log entry.
	Reconstructor = reconstruct.Reconstructor
	// Options bounds a reconstruction's solver effort (MaxConflicts)
	// and names its metrics registry (Obs).
	Options = reconstruct.Options
	// Oracle is the one-method interface over every reconstruction
	// backend (serial and parallel SAT, algebraic decode, GF(2) brute
	// force, the incremental session, and the dispatcher): Enumerate
	// the candidate signals of one log entry.
	Oracle = reconstruct.Oracle
	// Dispatcher routes each request to the cheapest sound backend
	// using instance features (m, k, rank, nullity).
	Dispatcher = reconstruct.Dispatcher
	// DispatchOptions tunes the dispatcher's cost model.
	DispatchOptions = reconstruct.DispatchOptions
	// Constraint restricts reconstruction candidates. It has the shape
	// of Property (Holds, Validate, Apply, String), every Property value
	// implements it, and every backend accepts every constraint.
	Constraint = reconstruct.Constraint
	// Property is a temporal property usable both as a concrete
	// predicate and as a reconstruction constraint.
	Property = properties.Property
	// Store is the central database of logged timeprints.
	Store = trace.Store
	// Recorder captures a reference change trace.
	Recorder = trace.Recorder
	// Status is a SAT solver verdict (Sat / Unsat / Unknown).
	Status = sat.Status
)

// Solver verdicts.
const (
	Sat     = sat.Sat
	Unsat   = sat.Unsat
	Unknown = sat.Unknown
)

// NewEncoding generates m timestamps of width b with the paper's
// incremental heuristic, guaranteeing linear independence of depth 4.
func NewEncoding(m, b int) (*Encoding, error) {
	return encoding.Incremental(m, b, 4)
}

// NewEncodingDepth is NewEncoding with an explicit LI depth (1..4).
func NewEncodingDepth(m, b, d int) (*Encoding, error) {
	return encoding.Incremental(m, b, d)
}

// NewRandomEncoding generates m width-b LI-4 timestamps by constrained
// random draws (Section 5.1.2's alternative scheme).
func NewRandomEncoding(m, b int, seed int64) (*Encoding, error) {
	return encoding.RandomConstrained(m, b, 4, seed, 0)
}

// MinimalEncoding finds the smallest width b the incremental LI-4
// generator supports for trace-cycle length m.
func MinimalEncoding(m int) (*Encoding, error) {
	return encoding.MinimalB(m, 4, 0)
}

// OneHotEncoding returns the unambiguous b = m encoding.
func OneHotEncoding(m int) *Encoding { return encoding.OneHot(m) }

// ParseVector parses an MSB-first binary string into a bit vector
// (e.g. a timeprint retrieved from a log).
func ParseVector(s string) (Vector, error) { return bitvec.Parse(s) }

// EncodingFromStrings builds an encoding from explicit timestamps
// written MSB-first in binary (e.g. the 16 vectors of the paper's
// Figure 4). All strings must share one width; timestamps must be
// nonzero and pairwise distinct.
func EncodingFromStrings(bits []string) (*Encoding, error) {
	ts := make([]bitvec.Vector, len(bits))
	for i, s := range bits {
		v, err := bitvec.Parse(s)
		if err != nil {
			return nil, err
		}
		ts[i] = v
	}
	return encoding.FromTimestamps(ts, "explicit")
}

// NewSignal returns an all-quiet signal of length m.
func NewSignal(m int) Signal { return core.NewSignal(m) }

// SignalFromChanges builds a signal with changes at the given cycles.
func SignalFromChanges(m int, changes ...int) Signal {
	return core.SignalFromChanges(m, changes...)
}

// Log abstracts a signal to its log entry under the encoding (the
// paper's α̃).
func Log(enc *Encoding, s Signal) LogEntry { return core.Log(enc, s) }

// NewLogger returns a streaming logger.
func NewLogger(enc *Encoding) *Logger { return core.NewLogger(enc) }

// LogRate returns the logging bit-rate (bits/second) for a signal
// clocked at clockHz: (b + ⌈log2(m+1)⌉) / m · clockHz.
func LogRate(b, m int, clockHz float64) float64 { return core.LogRate(b, m, clockHz) }

// BitsPerTraceCycle returns the constant per-trace-cycle log size.
func BitsPerTraceCycle(b, m int) int { return core.BitsPerTraceCycle(b, m) }

// WriteLog serializes log entries in the compact wire format.
func WriteLog(w io.Writer, m, b int, entries []LogEntry) error {
	return core.WriteLog(w, m, b, entries)
}

// ReadLog deserializes a timeprint log.
func ReadLog(r io.Reader) (m, b int, entries []LogEntry, err error) {
	return core.ReadLog(r)
}

// NewReconstructor builds a signal-reconstruction instance for a log
// entry, optionally constrained by temporal properties.
func NewReconstructor(enc *Encoding, entry LogEntry, constraints []Constraint, opts Options) (*Reconstructor, error) {
	return reconstruct.New(enc, entry, constraints, opts)
}

// BruteForce solves reconstruction by F2 Gaussian elimination and
// coset enumeration — the validation baseline.
func BruteForce(enc *Encoding, entry LogEntry, limit int) ([]Signal, error) {
	return reconstruct.BruteForce(enc, entry, limit, 0)
}

// NewDispatcher builds a cost-model router over all reconstruction
// backends. Force (DispatchOptions.Force) pins a single backend;
// "auto" or empty enables feature-based routing.
func NewDispatcher(enc *Encoding, opts DispatchOptions) (*Dispatcher, error) {
	return reconstruct.NewDispatcher(enc, opts)
}

// ErrUnsupported reports that an oracle cannot express a request
// (algebraic decode beyond k=4, brute force past its nullity budget).
// Only a forced backend meets it; the dispatcher then falls back to
// serial SAT.
var ErrUnsupported = reconstruct.ErrUnsupported

// NewStore creates an empty timeprint database for one traced signal.
func NewStore(name string, clockHz float64, m, b int) *Store {
	return trace.NewStore(name, clockHz, m, b)
}

// NewRecorder creates an empty reference-trace recorder.
func NewRecorder() *Recorder { return trace.NewRecorder() }

// Temporal properties (Section 5.1.3 and the didactic Section 3.3).
type (
	// P2 holds when two consecutive change cycles appear at least once.
	P2 = properties.P2
	// Dk holds when at least K changes occur before cycle D.
	Dk = properties.Dk
	// PairedChanges holds when every change belongs to an isolated
	// adjacent pair (one-cycle value writes).
	PairedChanges = properties.PairedChanges
	// Window restricts all changes to [Lo, Hi).
	Window = properties.Window
	// ChangeBefore holds when some change precedes cycle D.
	ChangeBefore = properties.ChangeBefore
	// QuietBefore holds when no change precedes cycle D.
	QuietBefore = properties.QuietBefore
	// MinGap keeps consecutive changes at least Gap cycles apart.
	MinGap = properties.MinGap
	// ExactChanges pins the complete change set.
	ExactChanges = properties.ExactChanges
	// OneOfSignals restricts the signal to an explicit candidate set.
	OneOfSignals = properties.OneOfSignals
	// All conjoins properties.
	All = properties.All

	// TCL-style timing constraints (Lisper–Nordlander, the paper's
	// reference [15]):

	// Response requires every change to be answered by another within
	// [L, U] cycles (windows truncated at the trace-cycle end).
	Response = properties.Response
	// Periodic restricts changes to within Jitter of the Period grid.
	Periodic = properties.Periodic
	// MaxGap bounds the distance between consecutive changes.
	MaxGap = properties.MaxGap
	// CountBetween bounds the change count in a window.
	CountBetween = properties.CountBetween
	// FirstChangeIn constrains where the first change may fall.
	FirstChangeIn = properties.FirstChangeIn
)

// DelayedVariants builds the Section 5.2.2 localization property: the
// reference trace with exactly one change delayed by delta cycles.
func DelayedVariants(ref Signal, delta int) OneOfSignals {
	return properties.DelayedVariants(ref, delta)
}

// Runtime-verification monitors (the paper's Figures 1–3 "RV" box):
// constant-state FSMs checking a property online, one verdict per
// trace-cycle. Satisfied verdicts may prune reconstruction via
// Monitor.Constraints.
type (
	// Monitor drives a property FSM over a change stream segmented
	// into trace-cycles.
	Monitor = monitor.Monitor
	// MonitorFSM is the constant-state online checker interface.
	MonitorFSM = monitor.FSM
	// MonitorVerdict is one trace-cycle outcome.
	MonitorVerdict = monitor.Verdict
)

// NewMonitor wraps an FSM for trace-cycles of length m.
func NewMonitor(fsm MonitorFSM, m int) *Monitor { return monitor.New(fsm, m) }

// Monitor FSM constructors.
func NewDkMonitor(d, k int) MonitorFSM       { return monitor.NewDk(d, k) }
func NewMinGapMonitor(gap int) MonitorFSM    { return monitor.NewMinGap(gap) }
func NewWindowMonitor(lo, hi int) MonitorFSM { return monitor.NewWindow(lo, hi) }
func NewPairedChangesMonitor() MonitorFSM    { return monitor.NewPairedChanges() }
func NewPeriodicMonitor(period, jitter int) MonitorFSM {
	return monitor.NewPeriodic(period, jitter)
}

// NewResponseMonitor monitors "every change answered within [1, U]".
func NewResponseMonitor(u int) (MonitorFSM, error) { return monitor.NewResponse(u) }

// ParseProperty reads a property from its textual form (see
// internal/properties.Parse for the grammar), e.g.
// "mingap(3); dk(32,3)".
func ParseProperty(s string) (Property, error) { return properties.Parse(s) }
