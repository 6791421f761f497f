package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAll runs every workload, untraced and then traced, each in a fresh
// process of this binary, prints each run's report, and ends with the
// tracing overhead: traced minus untraced for every end-to-end metric
// of every workload. It returns a non-zero status when any run failed.
func runAll(cfg config) int {
	status := 0
	type pair struct{ untraced, traced map[string]metric }
	overhead := map[string]pair{}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloadOrder {
		var p pair
		for _, trace := range []int{0, 1} {
			res, err := runChild(cfg, w, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s (trace %d): %v\n", w, trace, err)
				status = 1
			}
			if res == nil {
				total.Correct = false
				continue
			}
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			total.Correct = total.Correct && res.Correct
			saved, err := readSaved(w, cfg.seed, trace == 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
				status = 1
				continue
			}
			if trace == 0 {
				p.untraced = saved.EndToEnd
				for name, m := range saved.EndToEnd {
					total.Metrics[w+"/"+name] = m
				}
			} else {
				p.traced = saved.EndToEnd
			}
		}
		overhead[w] = p
	}
	fmt.Println("tracing overhead (traced minus untraced, end-to-end metrics):")
	for _, w := range workloadOrder {
		p := overhead[w]
		if p.untraced == nil || p.traced == nil {
			continue
		}
		for _, d := range endToEnd {
			u, t := p.untraced[d.name].Value, p.traced[d.name].Value
			fmt.Printf("  %-13s %-16s untraced %12.6g  traced %12.6g  overhead %+12.6g %s\n",
				w, d.name, u, t, t-u, d.unit)
		}
	}
	line, _ := json.Marshal(total)
	fmt.Println(string(line))
	return status
}

// runChild runs one workload in a child process, echoes its output and
// returns the result its last line carries.
func runChild(cfg config, workload string, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(cfg.seed, 10),
		"--seconds", strconv.Itoa(cfg.seconds), "--trace", strconv.Itoa(trace))
	var out bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, runErr
}

// readSaved reads a run's saved record.
func readSaved(workload string, seed uint64, trace bool) (savedResult, error) {
	var s savedResult
	b, err := os.ReadFile(resultPath(workload, seed, trace))
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}
