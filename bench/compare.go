package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareReports prints, for every workload and end-to-end metric, both
// medians, how much worse b is than a as a share of a, the metric's bound,
// and a verdict: worse when b is worse than a by more than the bound,
// unresolved when either side's own spread is wider than the bound (the
// comparison cannot tell), ok otherwise. It fails on any worse and on a
// higher share of failed operations.
func compareReports(aPath, bPath string) error {
	a, err := loadReport(aPath)
	if err != nil {
		return err
	}
	b, err := loadReport(bPath)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Printf("%-10s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Printf("%-10s missing from one report\n", w.Name)
			worse++
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			by := ratio(sb.Value-sa.Value, sa.Value)
			if m.Better == "higher" {
				by = -by
			}
			verdict := "ok"
			switch {
			case by > m.Bound:
				verdict = "worse"
				worse++
			case max(sa.spread(), sb.spread()) > m.Bound:
				verdict = "unresolved"
			}
			fmt.Printf("%-10s %-20s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", w.Name, m.Name, sa.Value, sb.Value, 100*by, 100*m.Bound, verdict)
		}
		fa, fb := ratio(float64(wa.Failed), float64(wa.Attempted)), ratio(float64(wb.Failed), float64(wb.Attempted))
		verdict := "ok"
		if fb > fa {
			verdict = "worse"
			worse++
		}
		fmt.Printf("%-10s %-20s %14.4f %14.4f %9s %7s  %s\n", w.Name, "failed share", fa, fb, "", "", verdict)
	}
	if worse > 0 {
		return errors.New("b is worse than a")
	}
	return nil
}
