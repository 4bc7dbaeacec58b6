package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// checkMain is `check A.json B.json`: one row per workload and end-to-end
// metric with both medians, their min and max, the bound, and a verdict.
//
//	same        B's median is within the bound of A's
//	worse       B's median is worse than A's by more than the bound
//	unresolved  the spread of either side's runs is wider than the bound, so
//	            the medians cannot tell (unless every run of B reads better
//	            than every run of A, which is then "same")
//
// Every ratio is printed with its base. The exit code is non-zero when any
// row is worse.
func checkMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark check A.json B.json")
		return 2
	}
	var sets [2]resultSet
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &sets[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark check: %s: %v\n", path, err)
			return 2
		}
	}
	a, b := sets[0], sets[1]
	fmt.Printf("A: %s (commit %s, seed %d)\nB: %s (commit %s, seed %d)\n", args[0], a.Meta.Commit, a.Meta.Seed, args[1], b.Meta.Commit, b.Meta.Seed)
	fmt.Printf("%-22s %-20s %14s %28s %14s %28s %9s %7s  %s\n",
		"workload", "metric", "A median", "A min..max", "B median", "B min..max", "B vs A", "bound", "verdict")

	worse, unresolved := 0, 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for i := range b.Workloads {
			if b.Workloads[i].Workload == wa.Workload {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Printf("%-22s missing from B\n", wa.Workload)
			worse++
			continue
		}
		for _, m := range allEndToEnd() {
			sa, okA := wa.Metrics[m.name]
			sb, okB := wb.Metrics[m.name]
			if !okA && !okB {
				continue // the workload does not have this metric
			}
			if okA != okB {
				fmt.Printf("%-22s %-20s present on one side only\n", wa.Workload, m.name)
				worse++
				continue
			}
			v := compare(m, sa, sb)
			switch v {
			case "worse":
				worse++
			case "unresolved":
				unresolved++
			}
			change := "n/a"
			if sa.Median != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(sb.Median-sa.Median)/sa.Median)
			}
			fmt.Printf("%-22s %-20s %14.4f %28s %14.4f %28s %9s %7s  %s\n",
				wa.Workload, m.name, sa.Median, span2(sa), sb.Median, span2(sb), change, boundText(m), v)
		}
	}
	fmt.Printf("B vs A is (B median − A median) ÷ A median; a bound is a share of A's median. %d worse, %d unresolved.\n", worse, unresolved)
	if worse > 0 {
		return 1
	}
	return 0
}

func span2(s summary) string { return fmt.Sprintf("%.4f..%.4f", s.Min, s.Max) }

func boundText(m metricSpec) string {
	if m.name == "failed_share" {
		return "no rise"
	}
	return fmt.Sprintf("%.0f%%", 100*m.bound)
}

// setupSlack is the absolute allowance on setup_s: a quarter more, or half a
// second, whichever is larger.
const setupSlack = 0.5

// compare gives the verdict for one metric on one workload.
func compare(m metricSpec, a, b summary) string {
	if m.name == "failed_share" {
		if b.Median > a.Median {
			return "worse"
		}
		return "same"
	}
	sign := 1.0 // positive: larger is worse
	if m.better == "higher" {
		sign = -1
	}
	allowed := m.bound * a.Median
	if m.name == "setup_s" && allowed < setupSlack {
		allowed = setupSlack
	}
	// Every run of B better than every run of A: no spread can hide a loss.
	if (sign > 0 && b.Max < a.Min) || (sign < 0 && b.Min > a.Max) {
		return "same"
	}
	if a.Max-a.Min > allowed || b.Max-b.Min > allowed {
		return "unresolved"
	}
	if sign*(b.Median-a.Median) > allowed {
		return "worse"
	}
	return "same"
}
