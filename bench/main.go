// Command bench is the profiler's end-to-end benchmark. It runs four
// workloads that take the guest program through the inline, offline and
// aprofd routes, checks every profile against the naive reference
// profiler, and reports end-to-end metrics (untraced) or a per-layer
// ledger derived from spans (traced). See README.md.
//
//	bash bench/run.sh -seed 1 -out results.json        # every workload, one child process each
//	bash bench/run.sh -trace -seed 1 -out traced.json  # the per-layer ledger
//	bash bench/run.sh --workload live-mysqld --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(normalizeArgs(os.Args[1:]), os.Stdout, os.Stderr))
}

// normalizeArgs joins "-trace 0" and "-trace 1" into "-trace=0" and
// "-trace=1": the flag is boolean, so a bare -trace also works.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// runFile is what a run over every workload writes with -out.
type runFile struct {
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Seconds   float64            `json:"seconds"`
	Env       environment        `json:"env"`
	Workloads map[string]*result `json:"workloads"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload, in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "workload input seed")
	seconds := fs.Float64("seconds", 15, "how long each workload measures, after set-up and the warm-up rep")
	traced := fs.Bool("trace", false, "record spans and report the per-layer metrics instead of the end-to-end ones")
	quick := fs.Bool("quick", false, "tiny inputs, for smoke tests")
	out := fs.String("out", "", "write the detailed results as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, traced: *traced, quick: *quick}
	if cfg.workload != "" {
		res := runWorkload(cfg)
		return report(res, *out, stdout, stderr)
	}

	file := runFile{Seed: cfg.seed, Traced: cfg.traced, Seconds: cfg.seconds, Env: currentEnvironment(), Workloads: make(map[string]*result)}
	tmp, err := os.MkdirTemp("", "aprof-bench-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	status := 0
	for _, spec := range workloadSpecs {
		res, err := runChild(cfg, spec.name, filepath.Join(tmp, spec.name+".json"), stdout, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", spec.name, err)
			status = 1
		}
		if res != nil {
			file.Workloads[spec.name] = res
		}
	}
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process of this binary, so each
// workload's peak RSS is its own, and reads back its detailed result.
func runChild(cfg config, name, path string, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace="+strconv.FormatBool(cfg.traced), "-quick="+strconv.FormatBool(cfg.quick), "-out", path)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(path)
	if err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, err
	}
	var res result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("reading its result: %w", err)
	}
	return &res, runErr
}

// report prints one workload's metrics and its summary line, writes its
// detailed result, and returns the exit status: nonzero unless every rep
// was correct.
func report(res *result, out string, stdout, stderr io.Writer) int {
	for _, e := range res.Errors {
		fmt.Fprintf(stderr, "bench: %s: %s\n", res.Workload, e)
	}
	res.printMetrics(stdout)
	line, err := res.summaryLine()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o666)
}
