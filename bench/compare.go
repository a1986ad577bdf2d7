package bench

import (
	"fmt"
	"io"
)

// Verdict is the outcome of comparing one end-to-end metric of one workload
// between a baseline set and a change.
type Verdict string

const (
	Better     Verdict = "better"
	Worse      Verdict = "worse"
	Same       Verdict = "same"
	Unresolved Verdict = "unresolved"
)

// Judge compares baseline samples a with change samples b of metric m, both
// in rep order:
//
//   - unresolved when either side's quartile spread is wider than the bound,
//     unless every change sample beats every baseline sample (better);
//   - worse when the change's median is worse by more than the bound, plus
//     the metric's absolute slack;
//   - better when the change wins at least nine in ten rep pairs, ties
//     counting for neither, and the medians differ by more than the
//     baseline's quartile spread;
//   - same otherwise.
func Judge(m Metric, a, b []float64) Verdict {
	// worseBy is how much worse x reads than y, in the metric's unit.
	worseBy := func(x, y float64) float64 {
		if m.Better == "higher" {
			return y - x
		}
		return x - y
	}
	ma, mb := median(a), median(b)
	qa1, qa3 := quartiles(a)
	qb1, qb3 := quartiles(b)
	if qa3-qa1 > m.Bound*ma || qb3-qb1 > m.Bound*mb {
		for _, x := range a {
			for _, y := range b {
				if worseBy(y, x) >= 0 {
					return Unresolved
				}
			}
		}
		return Better
	}
	if worseBy(mb, ma) > m.Bound*ma+m.Slack {
		return Worse
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if worseBy(b[i], a[i]) < 0 {
			wins++
		}
	}
	if pairs > 0 && 10*wins >= 9*pairs && worseBy(ma, mb) > qa3-qa1 {
		return Better
	}
	return Same
}

// CompareRow is one judged (workload, metric) pair.
type CompareRow struct {
	Workload, Metric string
	A, B             float64 // medians; check rows hold fail fractions
	Verdict          Verdict
}

// Compare judges every end-to-end metric of every workload present in both
// sets, then the output checks: any rise in the failed share is worse.
func Compare(a, b *SetFile) []CompareRow {
	var rows []CompareRow
	for _, wl := range Workloads {
		wa, okA := a.Workloads[wl.Name]
		wb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			continue
		}
		for _, m := range EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			rows = append(rows, CompareRow{wl.Name, m.Name, sa.Median, sb.Median,
				Judge(m.Metric, sa.Samples, sb.Samples)})
		}
		fa, fb := failFrac(wa), failFrac(wb)
		v := Same
		if fb > fa {
			v = Worse
		}
		rows = append(rows, CompareRow{wl.Name, "fail_frac", fa, fb, v})
	}
	return rows
}

func failFrac(ws WorkloadSummary) float64 { return ratio(float64(ws.Failed), float64(ws.Attempted)) }

// PrintCompare renders the rows and reports whether any is worse.
func PrintCompare(w io.Writer, rows []CompareRow) (worse bool) {
	fmt.Fprintf(w, "%-18s %-14s %14s %14s %9s  %s\n", "workload", "metric", "A median", "B median", "change", "verdict")
	for _, r := range rows {
		change := "n/a"
		if r.A != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(r.B-r.A)/r.A)
		}
		fmt.Fprintf(w, "%-18s %-14s %14.6g %14.6g %9s  %s\n", r.Workload, r.Metric, r.A, r.B, change, r.Verdict)
		worse = worse || r.Verdict == Worse
	}
	return worse
}
