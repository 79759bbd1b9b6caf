// Command abstat summarizes paired benchmark runs (scripts/ab.sh): for each
// metric the runs report, it prints the median and quartiles of each side
// and how many pairs the change side won.
//
// Usage:
//
//	go run ./scripts/abstat -benchmark BENCHMARK.json -ref ref.jsonl -change change.jsonl
//
// Each input holds one perfbench report (its last output line) per run, in
// pair order. A metric's direction ("better": "lower" or "higher") comes
// from BENCHMARK.json's end_to_end and per_layer lists; a metric listed in
// neither is printed without a win count.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"text/tabwriter"
)

type report struct {
	Correct   bool                               `json:"correct"`
	Attempted int                                `json:"attempted"`
	Failed    int                                `json:"failed"`
	Metrics   map[string]struct{ Value float64 } `json:"metrics"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Better string `json:"better"`
}

func main() {
	benchPath := flag.String("benchmark", "BENCHMARK.json", "benchmark declaration naming each metric's direction")
	refPath := flag.String("ref", "", "reports of the reference side, one per line")
	changePath := flag.String("change", "", "reports of the change side, one per line")
	flag.Parse()
	better, err := readDirections(*benchPath)
	if err == nil {
		var ref, change []report
		if ref, err = readReports(*refPath); err == nil {
			if change, err = readReports(*changePath); err == nil {
				err = summarize(os.Stdout, better, ref, change)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abstat:", err)
		os.Exit(1)
	}
}

func readDirections(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var decl struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	better := map[string]string{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		better[m.Name] = m.Better
	}
	return better, nil
}

func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, len(out)+1, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the first quartile, median and third quartile of xs by
// linear interpolation between order statistics.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	at := func(p float64) float64 {
		if len(s) == 0 {
			return math.NaN()
		}
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func summarize(w io.Writer, better map[string]string, ref, change []report) error {
	pairs := min(len(ref), len(change))
	if pairs == 0 {
		return fmt.Errorf("no complete pair of runs")
	}
	var names []string
	for name := range ref[0].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "metric\tref median [q1, q3]\tchange median [q1, q3]\tchange better\n")
	for _, name := range names {
		var a, b []float64
		wins := 0
		for i := 0; i < pairs; i++ {
			x, okA := ref[i].Metrics[name]
			y, okB := change[i].Metrics[name]
			if !okA || !okB {
				continue
			}
			a, b = append(a, x.Value), append(b, y.Value)
			if (better[name] == "lower" && y.Value < x.Value) || (better[name] == "higher" && y.Value > x.Value) {
				wins++
			}
		}
		a1, am, a3 := quartiles(a)
		b1, bm, b3 := quartiles(b)
		score := "-"
		if better[name] != "" {
			score = fmt.Sprintf("%d of %d", wins, len(a))
		}
		fmt.Fprintf(tw, "%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%s\n", name, am, a1, a3, bm, b1, b3, score)
	}
	for _, side := range []struct {
		name string
		runs []report
	}{{"ref", ref[:pairs]}, {"change", change[:pairs]}} {
		correct, attempted, failed := 0, 0, 0
		for _, r := range side.runs {
			if r.Correct {
				correct++
			}
			attempted += r.Attempted
			failed += r.Failed
		}
		fmt.Fprintf(tw, "%s: %d of %d runs correct, %d of %d jobs failed\n", side.name, correct, pairs, failed, attempted)
	}
	return tw.Flush()
}
