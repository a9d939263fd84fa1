package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the simulator's layers in ledger order. Each is named after
// the package it folds; "other" holds everything unmatched (the benchmark
// itself, energy, arch and the standard library).
var layers = []string{"sim", "mem", "lineset", "htm", "stm", "tm", "obs", "workload", "runtime", "other"}

// layerOf maps a Go package path to its layer.
func layerOf(pkg string) string {
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	name, ok := strings.CutPrefix(pkg, "rtmlab/internal/")
	if !ok {
		return "other"
	}
	switch name {
	case "sim", "mem", "lineset", "htm", "stm", "tm", "obs":
		return name
	case "locks", "perf":
		return "tm"
	case "stamp", "eigenbench", "ds", "alloc", "vm", "rng":
		return "workload"
	}
	return "other"
}

// funcPackage returns the package path of a symbol as pprof prints it:
// "rtmlab/internal/mem" for "rtmlab/internal/mem.(*cache).lookup". Type
// arguments and receivers are cut first, since they may name other
// packages.
func funcPackage(sym string) string {
	if i := strings.IndexAny(sym, "[( "); i >= 0 {
		sym = sym[:i]
	}
	slash := strings.LastIndex(sym, "/") + 1
	if dot := strings.Index(sym[slash:], "."); dot >= 0 {
		return sym[:slash+dot]
	}
	return sym
}

// foldTop folds the flat column of `go tool pprof -top` output into each
// layer's share of the profile's total. Samples the listing leaves out
// count as "other".
func foldTop(r io.Reader) (map[string]float64, error) {
	flat := map[string]float64{}
	var total, listed float64
	inTable := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "Showing nodes accounting for"):
			// "Showing nodes accounting for 2.03s, 100% of 2.03s total"
			i := strings.Index(line, " of ")
			if i < 0 || len(strings.Fields(line[i+4:])) == 0 {
				return nil, fmt.Errorf("pprof: malformed header %q", line)
			}
			v, err := parseDuration(strings.Fields(line[i+4:])[0])
			if err != nil {
				return nil, err
			}
			total = v
		case len(fields) >= 2 && fields[0] == "flat" && fields[1] == "flat%":
			inTable = true
		case inTable && len(fields) >= 6:
			v, err := parseDuration(fields[0])
			if err != nil {
				return nil, fmt.Errorf("pprof: %q: %w", line, err)
			}
			flat[layerOf(funcPackage(strings.Join(fields[5:], " ")))] += v
			listed += v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable || total <= 0 {
		return nil, fmt.Errorf("pprof: no samples in -top output")
	}
	flat["other"] += total - listed
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l] = flat[l] / total
	}
	return shares, nil
}

// parseDuration reads a pprof time value such as "0", "170ms", "2.03s"
// or "1.5mins" and returns milliseconds.
func parseDuration(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	units := []struct {
		suffix string
		ms     float64
	}{{"ns", 1e-6}, {"us", 1e-3}, {"ms", 1}, {"mins", 60e3}, {"hrs", 3600e3}, {"s", 1e3}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, fmt.Errorf("bad duration %q", s)
			}
			return v * u.ms, nil
		}
	}
	return 0, fmt.Errorf("bad duration %q", s)
}

// profileShares runs the toolchain's pprof over the CPU profiles and
// folds its flat listing by layer. It also returns the raw listing.
func profileShares(files []string) (map[string]float64, []byte, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodefraction=0", "-unit=ms"}, files...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	shares, err := foldTop(bytes.NewReader(out))
	return shares, out, err
}
