package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

// diffBaseline compares this run's figure rows against a checked-in
// baseline JSON file: every numeric leaf is matched by its flattened path
// (row index + field), the percent delta printed when nonzero, and a
// trajectory point appended to <path>.trajectory.jsonl. Returns an error
// (→ exit 1) when any |delta| exceeds thresholdPct, a metric appears or
// disappears, or a non-numeric leaf changes — unless warnOnly.
//
// The simulations behind the rows are deterministic, so on an unchanged
// simulator the diff is exactly zero; any drift is a real model change,
// and the threshold only decides how much of one is tolerated.
func diffBaseline(path string, rows any, thresholdPct float64, warnOnly bool) error {
	baseRaw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("-baseline: %w", err)
	}
	var base, cur any
	if err := json.Unmarshal(baseRaw, &base); err != nil {
		return fmt.Errorf("-baseline %s: %w", path, err)
	}
	curRaw, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(curRaw, &cur); err != nil {
		return err
	}
	baseLeaves, curLeaves := map[string]any{}, map[string]any{}
	flattenJSON("", base, baseLeaves)
	flattenJSON("", cur, curLeaves)

	paths := make([]string, 0, len(baseLeaves))
	for p := range baseLeaves {
		paths = append(paths, p)
	}
	for p := range curLeaves {
		if _, ok := baseLeaves[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)

	var compared, drifted, failed int
	var worstPath string
	var worstPct float64
	for _, p := range paths {
		b, inBase := baseLeaves[p]
		c, inCur := curLeaves[p]
		switch {
		case !inBase:
			fmt.Printf("baseline %-60s (missing)        now %v\n", p, c)
			failed++
		case !inCur:
			fmt.Printf("baseline %-60s %-15v now (missing)\n", p, b)
			failed++
		default:
			bn, bNum := b.(float64)
			cn, cNum := c.(float64)
			if !bNum || !cNum {
				if b != c {
					fmt.Printf("baseline %-60s %-15v now %v\n", p, b, c)
					failed++
				}
				continue
			}
			compared++
			pct, ok := pctDelta(bn, cn)
			if !ok {
				fmt.Printf("baseline %-60s %-15s now %s (was zero)\n", p, fmtNum(bn), fmtNum(cn))
				failed++
				continue
			}
			if pct == 0 {
				continue
			}
			drifted++
			fmt.Printf("baseline %-60s %-15s now %-15s %+7.2f%%\n", p, fmtNum(bn), fmtNum(cn), pct)
			if math.Abs(pct) > math.Abs(worstPct) {
				worstPct, worstPath = pct, p
			}
			if math.Abs(pct) > thresholdPct {
				failed++
			}
		}
	}
	fmt.Printf("baseline %s: %d metrics compared, %d drifted, %d past +/-%g%% (worst %+0.2f%% at %s)\n",
		path, compared, drifted, failed, thresholdPct, worstPct, orNone(worstPath))

	if err := appendTrajectory(path, compared, drifted, failed, worstPct, worstPath, thresholdPct); err != nil {
		fmt.Fprintln(os.Stderr, "umbench: trajectory:", err)
	}
	if failed > 0 && !warnOnly {
		return fmt.Errorf("-baseline: %d metric(s) drifted past +/-%g%% of %s", failed, thresholdPct, path)
	}
	return nil
}

// appendTrajectory records one comparison outcome as a JSON line next to
// the baseline file, building the per-baseline performance trajectory.
func appendTrajectory(path string, compared, drifted, failed int, worstPct float64, worstPath string, thresholdPct float64) error {
	f, err := os.OpenFile(path+".trajectory.jsonl", os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	point := map[string]any{
		"time":           time.Now().UTC().Format(time.RFC3339),
		"compared":       compared,
		"drifted":        drifted,
		"past_threshold": failed,
		"threshold_pct":  thresholdPct,
		"worst_pct":      worstPct,
		"worst_path":     orNone(worstPath),
	}
	b, err := json.Marshal(point)
	if err != nil {
		return err
	}
	_, err = f.Write(append(b, '\n'))
	return err
}

// flattenJSON reduces a decoded JSON tree to path→leaf: objects extend the
// path with .key, arrays with [index].
func flattenJSON(prefix string, v any, out map[string]any) {
	switch t := v.(type) {
	case map[string]any:
		for k, child := range t {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flattenJSON(p, child, out)
		}
	case []any:
		for i, child := range t {
			flattenJSON(prefix+"["+strconv.Itoa(i)+"]", child, out)
		}
	default:
		out[prefix] = v
	}
}

// pctDelta returns the percent change base→cur; ok is false when base is
// zero and cur is not (no finite percentage exists).
func pctDelta(base, cur float64) (pct float64, ok bool) {
	if base == 0 {
		return 0, cur == 0
	}
	return 100 * (cur - base) / base, true
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func orNone(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
