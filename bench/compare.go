package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// specPath is BENCHMARK.json's path from the repository root, where the
// benchmark runs.
const specPath = "BENCHMARK.json"

func loadSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// loadResults reads every untraced result file under dir, by workload.
func loadResults(dir string) (map[string][]result, error) {
	out := map[string][]result{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r result
		if json.Unmarshal(data, &r) != nil || r.Schema != schema || r.Traced {
			return nil // a trace or another file kept beside the results
		}
		out[r.Workload] = append(out[r.Workload], r)
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("no %s result files under %s", schema, dir)
	}
	return out, err
}

// compare prints, for each workload and end-to-end metric, the median
// and quartiles of the result files under each of two directories, the
// change of the medians, and a verdict against the metric's bound. It
// fails when any verdict is "worse".
func compare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return errors.New("usage: rtmbench compare A/ B/")
	}
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := loadResults(args[0])
	if err != nil {
		return err
	}
	b, err := loadResults(args[1])
	if err != nil {
		return err
	}
	var names []string
	for name := range a {
		names = append(names, name)
	}
	for name := range b {
		if _, ok := a[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-18s %-18s %-32s %-32s %8s %6s  %s\n", "workload", "metric",
		"A median [q1, q3] (n)", "B median [q1, q3] (n)", "delta", "bound", "verdict")
	worse := 0
	for _, name := range names {
		for _, m := range sp.EndToEnd {
			va, vb := values(a[name], m.Name), values(b[name], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-18s %-18s missing on one side\n", name, m.Name)
				continue
			}
			v := verdict(va, vb, m.Bound, m.Better == "higher")
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-18s %-18s %-32s %-32s %+7.2f%% %5.0f%%  %s\n", name, m.Name,
				summary(va), summary(vb), 100*(median(vb)/median(va)-1), 100*m.Bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", worse)
	}
	return nil
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
}

// spread is the quartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// verdict judges B against A. A change of the medians within the bound
// is "unchanged". When either side's spread is wider than the bound the
// metric is "unresolved", unless every value of B is better (or worse)
// than every value of A.
func verdict(a, b []float64, bound float64, higherBetter bool) string {
	gain := median(b)/median(a) - 1
	if !higherBetter {
		gain = -gain
	}
	if max(spread(a), spread(b)) > bound {
		better, worse := true, true
		for _, x := range a {
			for _, y := range b {
				if (y > x) != higherBetter || y == x {
					better = false
				}
				if (y < x) != higherBetter || y == x {
					worse = false
				}
			}
		}
		switch {
		case better:
			return "better"
		case worse:
			return "worse"
		}
		return "unresolved"
	}
	switch {
	case gain < -bound:
		return "worse"
	case gain > bound:
		return "better"
	}
	return "unchanged"
}
