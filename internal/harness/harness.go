// Package harness regenerates every figure and table of the paper's
// evaluation: the RTM capacity/duration/overhead microbenchmarks (Fig. 1,
// Fig. 2, Table I), the seven Eigenbench characteristic sweeps (Figs. 3-9),
// the STAMP comparison (Figs. 10-12) and the two case studies (Tables IV
// and V). Results are printed as aligned text tables (with paper-expected
// shapes noted) and optionally written as CSV.
package harness

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"rtmlab/internal/arch"
	"rtmlab/internal/obs"
	"rtmlab/internal/stamp"
	"rtmlab/internal/stm"
	"rtmlab/internal/tm"
)

// itoa is a short alias for strconv.Itoa.
func itoa(v int) string { return strconv.Itoa(v) }

// Options configures experiment runs.
type Options struct {
	Scale  stamp.Scale // input scale for STAMP and sweep density
	Seeds  int         // independent runs to average (paper: 10)
	OutDir string      // CSV output directory; "" disables
	// Jobs is the worker count for cross-point fan-out (see
	// internal/runner): experiment points are independent simulations, so
	// they run concurrently and are collected by point index, making the
	// output byte-identical at any worker count. Jobs <= 0 means one
	// worker per CPU; Jobs == 1 is the fully sequential behavior.
	Jobs int
	// Obs, if non-nil, collects per-point flight recorders across the
	// simulation-heavy experiments (STAMP figures, case studies, claims,
	// hybrid study). Recorders are keyed by (experiment, point, sub), so
	// trace and metrics output stays byte-identical at any Jobs value.
	Obs *obs.Collector
	// Shards selects the intra-point engine (see arch.Sharding): 0 is the
	// classic serial scheduler, > 0 the epoch-synchronized sharded engine
	// with that many workers (capped at one per simulated physical core).
	// rtmlab resolves "-shards -1" (auto) to the host's GOMAXPROCS before
	// it fills this field. Sharded results depend only on EpochCycles,
	// never on the worker count, so output is byte-identical for any
	// Shards >= 1; it composes freely with Jobs (inter-point fan-out).
	Shards int
	// EpochCycles overrides the coherence-epoch length of the sharded
	// engine (0 = arch.DefaultEpochCycles).
	EpochCycles uint64
	// STMProtocol selects the software-TM concurrency-control protocol
	// for every STM (and hybrid-fallback) run: "tinystm" (default; ""
	// means the same), "tl2" or "norec". See internal/stm. Table and
	// recorder labels resolve the protocol name, so each setting
	// produces self-describing output; like the engine knobs, each
	// setting is byte-identical across -j and -shards.
	STMProtocol string
}

// stmProtocol resolves the effective protocol name ("" = tinystm).
func (o Options) stmProtocol() string {
	if o.STMProtocol == "" {
		return stm.TinySTMName
	}
	return o.STMProtocol
}

// backendLabel names a backend in table rows, headers and recorder
// labels, resolving the STM backend to its configured protocol (the
// default keeps the historical "tinystm" label, so default output is
// byte-identical).
func (o Options) backendLabel(b tm.Backend) string {
	if b == tm.STM {
		return o.stmProtocol()
	}
	return b.String()
}

// Machine returns the simulated machine description the options select:
// Haswell with the options' engine sharding and STM protocol. Every
// experiment builds its machines from it (editing its own copy for an
// ablation), so -shards and -stm-protocol reach every point; nothing
// edits sys.Arch after tm.NewSystem.
func (o Options) Machine() *arch.Config {
	cfg := arch.Haswell()
	cfg.Shard = arch.Sharding{Shards: o.Shards, EpochCycles: o.EpochCycles}
	cfg.STM.Protocol = o.STMProtocol
	return cfg
}

// system builds the options' machine for backend, with a flight recorder
// for the given point and label attached when the options collect them.
func (o Options) system(backend tm.Backend, point int, label string) *tm.System {
	sys := tm.NewSystem(o.Machine(), backend)
	if o.Obs != nil {
		sys.SetRecorder(o.Obs.Recorder(point, label))
	}
	return sys
}

// Table is a printable/exportable result grid.
type Table struct {
	ID     string // experiment id, e.g. "fig3"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string // paper-expected shape, deviations, parameters
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// addRows appends index-ordered rows produced by a runner fan-out,
// skipping nil entries (points that only emitted notes or errors).
func addRows(t *Table, rows [][]string) {
	for _, row := range rows {
		if row != nil {
			t.AddRow(row...)
		}
	}
}

// Note appends an annotation line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintln(w)
}

// WriteCSV stores the table under dir/<id>.csv.
func (t *Table) WriteCSV(dir string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	var buf bytes.Buffer
	writeRow := func(cells []string) {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = esc(c)
		}
		fmt.Fprintln(&buf, strings.Join(out, ","))
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return os.WriteFile(filepath.Join(dir, t.ID+".csv"), buf.Bytes(), 0o644)
}

// Emit prints the table and writes its CSV, reporting CSV errors inline.
func Emit(w io.Writer, o Options, t *Table) {
	t.Fprint(w)
	if err := t.WriteCSV(o.OutDir); err != nil {
		fmt.Fprintf(w, "  ! csv write failed: %v\n", err)
	}
}

// f2 formats a float with 2 decimals; f3 with 3.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// bar renders a crude ASCII bar for quick shape reading.
func bar(v, max float64, width int) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * float64(width))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// Experiments maps experiment ids to their runners, in paper order.
func Experiments() []struct {
	ID  string
	Run func(w io.Writer, o Options)
} {
	return []struct {
		ID  string
		Run func(w io.Writer, o Options)
	}{
		{"fig1", Fig1},
		{"fig2", Fig2},
		{"table1", Table1},
		{"fig3", Fig3},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10to12},
		{"table4", Table4},
		{"table5", Table5},
		{"claims", Claims},
		{"hybrid", HybridStudy},
		{"ablation-retries", AblationRetries},
		{"ablation-lockarray", AblationLockArray},
		{"ablation-tick", AblationTick},
		{"ablation-l1", AblationL1},
		{"ablation-readset", AblationReadSet},
		{"ablation-membw", AblationMemBW},
		{"ablation-prefetch", AblationPrefetch},
	}
}

// All runs every experiment in order.
func All(w io.Writer, o Options) {
	for _, e := range Experiments() {
		e.Run(w, o)
	}
}
