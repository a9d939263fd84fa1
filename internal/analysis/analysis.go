// Package analysis implements rtmvet, the project's custom static
// checker. It enforces, at compile time, the invariants the test suite
// can only probe dynamically:
//
//   - detnondet: no nondeterminism source (wall-clock time, the global
//     math/rand stream, branching on the environment or host
//     configuration, goroutine-ID tricks, order-sensitive map
//     iteration) in the packages whose state feeds the simulated
//     timeline and the experiment output;
//   - hotalloc: functions annotated //rtm:hot contain no construct that
//     allocates or boxes on the steady-state path;
//   - obsguard: every *obs.Recorder method call is dominated by a nil
//     check on its receiver, keeping the disabled flight recorder at one
//     compare;
//   - detseed: rng generators are seeded from parameters or config, never
//     from wall-clock, pid, environment or ambient-randomness sources;
//   - txnsafe: atomic-block closures reach no host-state side effect
//     (captured or package-level writes, I/O, channels, goroutines), since
//     an aborted body re-executes;
//   - shardfreeze: //rtm:midepoch functions do not mutate the shared
//     state the sharded engine freezes between epoch boundaries.
//
// One table, intrinsics.go, says which stdlib call reads the clock,
// global randomness or the environment; detnondet, detseed and the
// interprocedural effect summaries behind txnsafe and shardfreeze all
// read it.
//
// The driver is built on go/ast, go/types and go/build only — no module
// dependencies. Findings can be suppressed per line with a
// "//rtmvet:ignore <reason>" comment on the flagged line or the line
// above it; the reason is mandatory, and a bare ignore is itself a
// diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// A Pass is one named check over a type-checked package.
type Pass struct {
	Name string
	Doc  string
	Run  func(*Unit) []Diagnostic
}

// Passes returns all registered passes in stable order.
func Passes() []*Pass {
	return []*Pass{
		{Name: "detnondet", Doc: "forbid nondeterminism sources in deterministic packages", Run: runDetNonDet},
		{Name: "hotalloc", Doc: "forbid allocation and boxing in //rtm:hot functions", Run: runHotAlloc},
		{Name: "obsguard", Doc: "require nil-check domination for *obs.Recorder calls", Run: runObsGuard},
		{Name: "detseed", Doc: "forbid wall-clock/pid seeds for internal/rng generators", Run: runDetSeed},
		{Name: "txnsafe", Doc: "forbid host-state side effects reachable from atomic-block closures", Run: runTxnSafe},
		{Name: "shardfreeze", Doc: "forbid frozen-shared-state mutation from //rtm:midepoch functions", Run: runShardFreeze},
	}
}

// Diagnostic is one finding. The JSON field set (pass, kind, file,
// line, col, message) is a stable schema that CI annotation tooling
// may depend on; Kind is a per-pass finding slug (passes with a single
// finding shape use the pass name).
type Diagnostic struct {
	Pass    string `json:"pass"`
	Kind    string `json:"kind"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`

	pos token.Pos
	fix *mapFix
}

func (u *Unit) diag(pass string, pos token.Pos, format string, args ...any) Diagnostic {
	p := u.Fset.Position(pos)
	return Diagnostic{
		Pass:    pass,
		Kind:    pass,
		File:    p.Filename,
		Line:    p.Line,
		Col:     p.Column,
		Message: fmt.Sprintf(format, args...),
		pos:     pos,
	}
}

// diagKind is diag with an explicit finding-kind slug.
func (u *Unit) diagKind(pass, kind string, pos token.Pos, format string, args ...any) Diagnostic {
	d := u.diag(pass, pos, format, args...)
	d.Kind = kind
	return d
}

// Parent returns the syntactic parent of n within the unit.
func (u *Unit) Parent(n ast.Node) ast.Node {
	if u.parents == nil {
		u.parents = make(map[ast.Node]ast.Node)
		for _, f := range u.Files {
			buildParents(u.parents, f)
		}
	}
	return u.parents[n]
}

func buildParents(m map[ast.Node]ast.Node, root ast.Node) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			m[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
}

var generatedRx = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// generated reports whether f carries the standard generated-code header
// before its package clause.
func generated(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if generatedRx.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

// ignoreDirective is one //rtmvet:ignore comment.
type ignoreDirective struct {
	line   int
	reason string
	pos    token.Pos
}

const ignorePrefix = "//rtmvet:ignore"

// ignoresIn collects the ignore directives of one file.
func ignoresIn(fset *token.FileSet, f *ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
			if !ok {
				continue
			}
			if rest != "" && !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "\t") {
				continue // e.g. //rtmvet:ignorance
			}
			out = append(out, ignoreDirective{
				line:   fset.Position(c.Pos()).Line,
				reason: strings.TrimSpace(rest),
				pos:    c.Pos(),
			})
		}
	}
	return out
}

// Options configures a Run.
type Options struct {
	Passes []string // nil = all
}

func selectPasses(opt Options) ([]*Pass, error) {
	all := Passes()
	if opt.Passes == nil {
		return all, nil
	}
	byName := make(map[string]*Pass, len(all))
	for _, p := range all {
		byName[p.Name] = p
	}
	var sel []*Pass
	for _, name := range opt.Passes {
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown pass %q", name)
		}
		sel = append(sel, p)
	}
	return sel, nil
}

// RunUnit applies the selected passes to one unit and post-processes
// suppressions and generated files. Diagnostics come back sorted by
// position.
func RunUnit(u *Unit, opt Options) ([]Diagnostic, error) {
	passes, err := selectPasses(opt)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, p := range passes {
		diags = append(diags, p.Run(u)...)
	}

	// Suppression: an ignore-with-reason on the diagnostic's line or the
	// line above kills it. Bare ignores suppress nothing and are
	// themselves findings. Generated files are skipped wholesale.
	skipFile := make(map[string]bool)
	suppressed := make(map[string]bool) // "file:line" with reason
	for _, f := range u.Files {
		name := u.Fset.Position(f.Package).Filename
		if generated(f) {
			skipFile[name] = true
			continue
		}
		for _, ig := range ignoresIn(u.Fset, f) {
			if ig.reason == "" {
				diags = append(diags, u.diag("suppress", ig.pos,
					"rtmvet:ignore without a reason (write //rtmvet:ignore <why>)"))
				continue
			}
			suppressed[fmt.Sprintf("%s:%d", name, ig.line)] = true
			suppressed[fmt.Sprintf("%s:%d", name, ig.line+1)] = true
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if skipFile[d.File] {
			continue
		}
		if d.Pass != "suppress" && suppressed[fmt.Sprintf("%s:%d", d.File, d.Line)] {
			continue
		}
		kept = append(kept, d)
	}
	diags = kept
	sort.Slice(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		if diags[i].Line != diags[j].Line {
			return diags[i].Line < diags[j].Line
		}
		if diags[i].Col != diags[j].Col {
			return diags[i].Col < diags[j].Col
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}
