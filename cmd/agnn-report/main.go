// Command agnn-report summarizes the CSV files produced by agnn-plots into
// the paper-vs-measured comparison tables of EXPERIMENTS.md: for every
// configuration it pairs the global-formulation run with its baseline
// (mini-batch local for training figures, full-batch local for inference
// figures) and prints runtime speedups and communication-volume ratios as a
// markdown table.
//
//	agnn-report results_full/fig6.csv
//
// It also ingests the aggregated run-reports written by the -metrics flag
// of agnn-train/agnn-bench (see docs/OBSERVABILITY.md): pass a .json file
// and it prints the per-span time table plus the per-rank communication
// totals.
//
//	agnn-train -m GAT -epochs 10 -metrics run.json && agnn-report run.json
package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"agnn/internal/obs"
	"agnn/internal/obs/metrics"
)

type row struct {
	figure, model, engine, dataset, task      string
	ranks, n, m, maxdeg, features, layers     int
	medianSec, stdSec, netSec, predictedWords float64
	commBytes, commMsgs                       int64
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: agnn-report <figure.csv> [...]")
		os.Exit(1)
	}
	for _, path := range os.Args[1:] {
		if strings.HasSuffix(path, ".json") {
			rep, err := obs.ReadReportFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "agnn-report: %s: %v\n", path, err)
				os.Exit(1)
			}
			reportMetrics(os.Stdout, path, rep)
			continue
		}
		rows, err := readCSV(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "agnn-report: %s: %v\n", path, err)
			os.Exit(1)
		}
		report(path, rows)
	}
}

// reportMetrics renders an obs run-report (agnn-train/agnn-bench -metrics)
// as markdown: the per-span-name time table, per-rank communication totals
// for distributed runs, then the live-registry section (latency quantiles,
// per-rank counters, cost-model validation).
func reportMetrics(w io.Writer, path string, rep *obs.Report) {
	fmt.Fprintf(w, "\n## %s\n\n", path)
	if rep.DroppedEvents > 0 {
		fmt.Fprintf(w, "warning: the recorded logs dropped %d events at their cap; the tables below undercount the run\n\n", rep.DroppedEvents)
	}
	fmt.Fprintln(w, "| span | calls | total | mean | max | bytes | msgs |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, s := range rep.Spans {
		mean := time.Duration(0)
		if s.Count > 0 {
			mean = time.Duration(s.TotalNs / s.Count)
		}
		fmt.Fprintf(w, "| %s | %d | %s | %s | %s | %s | %s |\n",
			s.Name, s.Count,
			time.Duration(s.TotalNs).Round(time.Microsecond),
			mean.Round(time.Microsecond),
			time.Duration(s.MaxNs).Round(time.Microsecond),
			attrCell(s.Attrs, "bytes"), attrCell(s.Attrs, "msgs"))
	}
	var ranks []obs.TrackStat
	for _, ts := range rep.Tracks {
		if ts.Spans > 0 && strings.HasPrefix(ts.Track, "rank ") {
			ranks = append(ranks, ts)
		}
	}
	if len(ranks) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "| rank | spans | open | bytes | msgs |")
		fmt.Fprintln(w, "|---|---|---|---|---|")
		for _, ts := range ranks {
			fmt.Fprintf(w, "| %s | %d | %d | %s | %s |\n", ts.Track, ts.Spans, ts.Open,
				attrCell(ts.Attrs, "bytes"), attrCell(ts.Attrs, "msgs"))
		}
	}
	if rep.CriticalPath != nil {
		renderCriticalPath(w, rep.CriticalPath)
	}
	if rep.Metrics != nil {
		renderMetricsSnapshot(w, rep.Metrics)
	} else {
		// Optional section: run-reports written before the registry snapshot
		// existed still render their span tables — warn, don't fail.
		fmt.Fprintf(os.Stderr, "agnn-report: %s: no metrics snapshot (older run-report?); skipping registry sections\n", path)
	}
}

// renderCriticalPath renders the cross-rank critical-path reconstruction
// (internal/obs/causal): the per-class time split, the top contributors
// with their rank/superstep attribution, the per-rank blocked-wait
// fractions, and the share of collective time hidden by overlap.
func renderCriticalPath(w io.Writer, s *obs.CritPath) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, "### critical path (cross-rank)")
	fmt.Fprintln(w)
	pct := func(ns int64) float64 {
		if s.PathNs == 0 {
			return 0
		}
		return 100 * float64(ns) / float64(s.PathNs)
	}
	fmt.Fprintf(w, "path %s across %d rank(s), %d cross-rank hop(s), coverage %.2f",
		time.Duration(s.PathNs).Round(time.Microsecond), s.Ranks, s.Hops, s.Coverage)
	if len(s.Epochs) > 0 {
		fmt.Fprintf(w, ", %d epoch window(s)", len(s.Epochs))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "compute %.1f%% · collective %.1f%% · wait %.1f%% · checkpoint %.1f%%\n",
		pct(s.ComputeNs), pct(s.CollectiveNs), pct(s.WaitNs), pct(s.CheckpointNs))
	if s.OverlapHiddenPct > 0 {
		fmt.Fprintf(w, "collective time hidden by overlap (off-path): %.1f%%\n", s.OverlapHiddenPct)
	}
	if s.DroppedEvents > 0 {
		fmt.Fprintf(w, "warning: %d causal events dropped (per-rank cap); attribution is partial\n", s.DroppedEvents)
	}
	if len(s.Top) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "| rank | step | class | name | time | % of path |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|")
		for _, c := range s.Top {
			fmt.Fprintf(w, "| %d | %d | %s | %s | %s | %.1f |\n",
				c.Rank, c.Step, c.Class, c.Name,
				time.Duration(c.Ns).Round(time.Microsecond), c.Pct)
		}
	}
	if len(s.PerRankWait) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "| rank | blocked wait | window fraction |")
		fmt.Fprintln(w, "|---|---|---|")
		for _, rw := range s.PerRankWait {
			fmt.Fprintf(w, "| %d | %s | %.3f |\n", rw.Rank,
				time.Duration(rw.BlockedNs).Round(time.Microsecond), rw.Frac)
		}
	}
}

// renderMetricsSnapshot renders the registry section: one quantile row per
// non-empty histogram series, the per-rank communication counter table, and
// the Section 7 predicted-vs-measured word-count comparison.
func renderMetricsSnapshot(w io.Writer, snap *metrics.Snapshot) {
	var hists []metrics.HistogramSnap
	for _, h := range snap.Histograms {
		if h.Count > 0 {
			hists = append(hists, h)
		}
	}
	if len(hists) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "### histogram quantiles")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "| histogram | count | p50 | p90 | p99 | sum |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|")
		for _, h := range hists {
			name := h.Name
			if h.LabelValue != "" {
				name = fmt.Sprintf("%s{%s=%s}", h.Name, h.Label, h.LabelValue)
			}
			fmt.Fprintf(w, "| %s | %d | %.3g | %.3g | %.3g | %.4g |\n",
				name, h.Count, h.P50, h.P90, h.P99, h.Sum)
		}
	}
	bytesByRank := snap.CounterFamily("agnn_comm_bytes_total")
	if len(bytesByRank) > 0 {
		msgs := snap.CounterFamily("agnn_comm_msgs_total")
		rounds := snap.CounterFamily("agnn_comm_rounds_total")
		var rankIDs []string
		for r := range bytesByRank {
			rankIDs = append(rankIDs, r)
		}
		sort.Slice(rankIDs, func(a, b int) bool { return atoi(rankIDs[a]) < atoi(rankIDs[b]) })
		fmt.Fprintln(w)
		fmt.Fprintln(w, "### per-rank communication (registry)")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "| rank | bytes | msgs | rounds |")
		fmt.Fprintln(w, "|---|---|---|---|")
		for _, r := range rankIDs {
			fmt.Fprintf(w, "| %s | %d | %d | %d |\n", r, bytesByRank[r], msgs[r], rounds[r])
		}
	}
	pred, okP := snap.Gauge("agnn_comm_predicted_words", "")
	meas, okM := snap.Gauge("agnn_comm_measured_words", "")
	if okP && okM && pred > 0 {
		fmt.Fprintln(w)
		fmt.Fprintln(w, "### cost-model validation")
		fmt.Fprintln(w)
		fmt.Fprintf(w, "predicted %.0f words/rank, measured %.0f — ratio %.2f\n",
			pred, meas, meas/pred)
	}
	renderRoofline(w, snap)
	renderStragglers(w, snap)
}

// renderRoofline renders the per-op-class roofline table: the static
// bytes/flops estimates of the compiled plans against the measured op wall
// time. Absent counters (runs predating the traffic model, or engines
// that never executed a plan) simply omit the section.
func renderRoofline(w io.Writer, snap *metrics.Snapshot) {
	flops := snap.CounterFamily("agnn_op_flops_total")
	bytes := snap.CounterFamily("agnn_op_bytes_total")
	var ops []string
	for op := range flops {
		if flops[op] > 0 || bytes[op] > 0 {
			ops = append(ops, op)
		}
	}
	if len(ops) == 0 {
		return
	}
	sort.Strings(ops)
	histSum := func(op string) float64 {
		for _, h := range snap.Histograms {
			if h.Name == "agnn_plan_op_seconds" && h.LabelValue == op {
				return h.Sum
			}
		}
		return 0
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "### roofline (static traffic model)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| op | flops | bytes | seconds | GF/s | flops/byte |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	var totF, totB int64
	var totS float64
	for _, op := range ops {
		f, b, s := flops[op], bytes[op], histSum(op)
		gfps, ai := "—", "—"
		if s > 0 {
			gfps = fmt.Sprintf("%.3f", float64(f)/s/1e9)
		}
		if b > 0 {
			ai = fmt.Sprintf("%.3f", float64(f)/float64(b))
		}
		fmt.Fprintf(w, "| %s | %d | %d | %.4g | %s | %s |\n", op, f, b, s, gfps, ai)
		totF += f
		totB += b
		totS += s
	}
	if totS > 0 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "aggregate: %.3f GF/s over %d bytes moved\n",
			float64(totF)/totS/1e9, totB)
	}
}

// renderStragglers renders the per-rank superstep wait distribution and
// straggler detections of a distributed run. Single-rank runs have no wait
// histograms and omit the section.
func renderStragglers(w io.Writer, snap *metrics.Snapshot) {
	var waits []metrics.HistogramSnap
	for _, h := range snap.Histograms {
		if h.Name == "agnn_rank_wait_seconds" && h.Count > 0 {
			waits = append(waits, h)
		}
	}
	if len(waits) == 0 {
		return
	}
	sort.Slice(waits, func(a, b int) bool { return atoi(waits[a].LabelValue) < atoi(waits[b].LabelValue) })
	strag := snap.CounterFamily("agnn_stragglers_total")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "### straggler diagnostics")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| rank | supersteps | wait p50 | wait p99 | wait total | stragglers |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, h := range waits {
		fmt.Fprintf(w, "| %s | %d | %.3g | %.3g | %.4g | %d |\n",
			h.LabelValue, h.Count, h.P50, h.P99, h.Sum, strag[h.LabelValue])
	}
	if ratio, ok := snap.Gauge("agnn_wait_imbalance_ratio", ""); ok && ratio > 0 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "wait imbalance (max/median, last superstep): %.2f\n", ratio)
	}
}

func attrCell(attrs map[string]int64, key string) string {
	v, ok := attrs[key]
	if !ok {
		return "—"
	}
	return strconv.FormatInt(v, 10)
}

func readCSV(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, err
	}
	if len(recs) < 2 {
		return nil, fmt.Errorf("no data rows")
	}
	var rows []row
	for _, r := range recs[1:] {
		if len(r) < 17 {
			return nil, fmt.Errorf("short row %v", r)
		}
		rows = append(rows, row{
			figure: r[0], model: r[1], engine: r[2], dataset: r[3], task: r[4],
			ranks: atoi(r[5]), n: atoi(r[6]), m: atoi(r[7]), maxdeg: atoi(r[8]),
			features: atoi(r[9]), layers: atoi(r[10]),
			medianSec: atof(r[11]), stdSec: atof(r[12]),
			commBytes: int64(atof(r[13])), commMsgs: int64(atof(r[14])),
			netSec: atof(r[15]), predictedWords: atof(r[16]),
		})
	}
	return rows, nil
}

func atoi(s string) int     { v, _ := strconv.Atoi(s); return v }
func atof(s string) float64 { v, _ := strconv.ParseFloat(s, 64); return v }

type key struct {
	model, task           string
	ranks, n, m, features int
}

func report(path string, rows []row) {
	byKey := map[key]map[string]row{}
	for _, r := range rows {
		k := key{r.model, r.task, r.ranks, r.n, r.m, r.features}
		if byKey[k] == nil {
			byKey[k] = map[string]row{}
		}
		byKey[k][r.engine] = r
	}
	var keys []key
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		x, y := keys[a], keys[b]
		switch {
		case x.model != y.model:
			return x.model < y.model
		case x.task != y.task:
			return x.task < y.task
		case x.features != y.features:
			return x.features < y.features
		case x.n != y.n:
			return x.n < y.n
		default:
			return x.ranks < y.ranks
		}
	})

	fmt.Printf("\n## %s\n\n", path)
	fmt.Println("| model | task | n | m | k | p | global s | baseline | baseline s | speedup | global B/rank | baseline B/rank |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|---|")
	for _, k := range keys {
		g, ok := byKey[k]["global"]
		if !ok {
			continue
		}
		baseName, base, haveBase := "", row{}, false
		for _, cand := range []string{"minibatch", "local"} {
			if b, ok := byKey[k][cand]; ok {
				baseName, base, haveBase = cand, b, true
				break
			}
		}
		if !haveBase {
			fmt.Printf("| %s | %s | %d | %d | %d | %d | %.4f | — | — | — | %d | — |\n",
				k.model, k.task, k.n, k.m, k.features, k.ranks, g.medianSec, g.commBytes)
			continue
		}
		fmt.Printf("| %s | %s | %d | %d | %d | %d | %.4f | %s | %.4f | %.2f× | %d | %d |\n",
			k.model, k.task, k.n, k.m, k.features, k.ranks,
			g.medianSec, baseName, base.medianSec, base.medianSec/g.medianSec,
			g.commBytes, base.commBytes)
	}
}
