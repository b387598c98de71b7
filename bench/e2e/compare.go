package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// runCompare implements the comparison rule for two sets of runs of the
// same benchmark settings — the parent commit's and a change's — read
// from -json record files. Runs pair up per workload in file order. For
// every workload × end-to-end metric it prints each side's median and
// quartiles, the pairs the change won, and a verdict:
//
//   - improved: the change won at least nine tenths of the pairs (ties
//     count for neither) and the medians differ, in its favour, by more
//     than the parent's interquartile distance;
//   - unresolved: otherwise, when the parent's own runs spread wider than
//     the metric's bound — unless every change run beats every parent run;
//   - regressed: the change's median is worse than the parent's by more
//     than the bound;
//   - unchanged: none of the above.
func runCompare(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: e2e compare parent.jsonl change.jsonl")
	}
	parent, order, err := readRecords(args[0])
	if err != nil {
		return err
	}
	change, _, err := readRecords(args[1])
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tparent q1\tmedian\tq3\tchange q1\tmedian\tq3\twins\tverdict\t")
	for _, wl := range order {
		ps, cs := parent[wl], change[wl]
		n := min(len(ps), len(cs))
		if n < 2 {
			fmt.Fprintf(tw, "%s\t(need two paired runs per side, have %d)\t\t\t\t\t\t\t\t\t\n", wl, n)
			continue
		}
		for _, s := range endToEnd {
			pv, cv := values(ps[:n], s.Name), values(cs[:n], s.Name)
			if pv == nil || cv == nil {
				continue
			}
			p1, p2, p3 := quartiles(pv)
			c1, c2, c3 := quartiles(cv)
			wins := 0
			for i := range pv {
				if better(s, cv[i], pv[i]) {
					wins++
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%d/%d\t%s\t\n",
				wl, s.Name, p1, p2, p3, c1, c2, c3, wins, n, verdict(s, pv, cv, wins))
		}
	}
	return tw.Flush()
}

func verdict(s metricSpec, pv, cv []float64, wins int) string {
	p1, p2, p3 := quartiles(pv)
	_, c2, _ := quartiles(cv)
	if 10*wins >= 9*len(pv) && better(s, c2, p2) && math.Abs(c2-p2) > p3-p1 {
		return "improved"
	}
	allBetter := true
	for _, c := range cv {
		for _, p := range pv {
			allBetter = allBetter && better(s, c, p)
		}
	}
	if (p3-p1)/math.Abs(p2) > s.Bound && !allBetter {
		return "unresolved"
	}
	worse := c2 - p2
	if s.Better == "higher" {
		worse = -worse
	}
	if worse > s.Bound*math.Abs(p2) {
		return "regressed"
	}
	return "unchanged"
}

func better(s metricSpec, a, b float64) bool {
	if s.Better == "higher" {
		return a > b
	}
	return a < b
}

func values(recs []*record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil
		}
		out = append(out, m.Value)
	}
	return out
}

// readRecords reads the untraced, correct records of a -json file, grouped
// by workload, with the workloads in first-seen order.
func readRecords(path string) (map[string][]*record, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	byWorkload := map[string][]*record{}
	var order []string
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace || !r.Correct {
			continue
		}
		if _, seen := byWorkload[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], &r)
	}
	return byWorkload, order, nil
}
