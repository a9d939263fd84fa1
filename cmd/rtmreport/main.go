// rtmreport renders causal reports from rtmlab metrics sidecars and
// diffs two runs.
//
// Report mode — one sidecar, rendered as the causal report (spans,
// latency percentiles, abort blame graphs, convoys, critical path,
// serial fraction):
//
//	rtmreport out/metrics/fig10.json
//	rtmreport -json out/metrics/fig10.json
//
// Diff mode — two sidecars of the same experiment (protocol A vs B,
// classic engine vs -shards N), compared metric by metric. Semantic
// metrics (committed atomic blocks, per-site commits) must match across
// engines; timing-derived metrics (latency, aborts, serial fraction, ...)
// get deltas and regression verdicts against -tol-pct:
//
//	rtmreport -diff a/fig10.json b/fig10.json
//	rtmreport -diff -same-commits -tol-pct 15 classic/table4.json sharded/table4.json
//
// Points pair by label. Labels are self-describing (they name the
// backend, so an STM point under -stm-protocol norec is labelled
// .../norec/... while the default run says .../tinystm/...); -relabel
// from=to rewrites labels on both sides before pairing, so runs of the
// same experiment under different protocols can be diffed:
//
//	rtmreport -diff -relabel norec=tinystm tiny/fig10.json norec/fig10.json
//
// Exit status: 0 on success; 1 when -same-commits is set and a semantic
// metric differs; 2 on usage or I/O errors. Reports are pure functions
// of the sidecar bytes, so their output inherits the sidecars'
// -j/-shards byte-identity guarantee.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rtmlab/internal/obs"
)

func main() {
	diff := flag.Bool("diff", false, "compare two metrics sidecars instead of reporting one")
	asJSON := flag.Bool("json", false, "emit JSON instead of text")
	sameCommits := flag.Bool("same-commits", false, "diff mode: exit 1 unless all semantic metrics (commit counts) match")
	tolPct := flag.Float64("tol-pct", 10, "diff mode: timing-metric tolerance before a regression/improvement verdict")
	relabel := flag.String("relabel", "", "diff mode: rewrite point labels before pairing, as from=to (substring replace on both sides); pairs runs whose labels differ only by a knob name, e.g. -relabel norec=tinystm")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rtmreport [-json] metrics.json\n")
		fmt.Fprintf(os.Stderr, "       rtmreport -diff [-json] [-same-commits] [-tol-pct N] [-relabel from=to] a.json b.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		a, err := obs.ReadMetricsFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := obs.ReadMetricsFile(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if *relabel != "" {
			from, to, ok := strings.Cut(*relabel, "=")
			if !ok || from == "" {
				fmt.Fprintln(os.Stderr, "rtmreport: -relabel wants from=to")
				os.Exit(2)
			}
			relabelDoc(a, from, to)
			relabelDoc(b, from, to)
		}
		d := obs.DiffMetrics(a, b, *tolPct)
		if *asJSON {
			data, err := obs.MarshalReportJSON(d)
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(data)
		} else {
			obs.WriteDiff(os.Stdout, d)
		}
		if *sameCommits && d.SemanticMismatches > 0 {
			fmt.Fprintf(os.Stderr, "rtmreport: %d semantic mismatch(es) with -same-commits\n",
				d.SemanticMismatches)
			os.Exit(1)
		}
		return
	}

	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	doc, err := obs.ReadMetricsFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		data, err := obs.MarshalReportJSON(doc)
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
		return
	}
	obs.WriteReport(os.Stdout, doc)
}

// relabelDoc applies the -relabel substring rewrite to every point
// label (and the aggregate's) so DiffMetrics pairs across knob names.
func relabelDoc(doc *obs.MetricsJSON, from, to string) {
	for i := range doc.Recorders {
		doc.Recorders[i].Label = strings.ReplaceAll(doc.Recorders[i].Label, from, to)
	}
	if doc.Aggregate != nil {
		doc.Aggregate.Label = strings.ReplaceAll(doc.Aggregate.Label, from, to)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtmreport:", err)
	os.Exit(2)
}
