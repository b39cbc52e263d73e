// Command aprof-experiments regenerates the tables and figures of the
// paper's evaluation on the Go reproduction.
//
// Usage:
//
//	aprof-experiments -list
//	aprof-experiments -run all [-quick] [-out results.txt]
//	aprof-experiments -run fig4,table1
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/profflag"
)

func main() {
	var (
		list  = flag.Bool("list", false, "list experiment ids and exit")
		run   = flag.String("run", "", "comma-separated experiment ids, or \"all\"")
		quick = flag.Bool("quick", false, "shrink workload sizes for a fast smoke run")
		out   = flag.String("out", "", "write the report to this file instead of stdout")
	)
	prof := profflag.Register(flag.CommandLine)
	if err := profflag.FlagsOnly(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aprof-experiments:", err)
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "aprof-experiments: -run is required (try -list)")
		flag.Usage()
		os.Exit(2)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aprof-experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	var selected []experiments.Experiment
	if *run == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := experiments.Get(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, "aprof-experiments:", err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "aprof-experiments:", err)
		os.Exit(1)
	}
	cfg := experiments.Config{Out: w, Quick: *quick}
	for _, e := range selected {
		fmt.Fprintf(w, "================================================================\n")
		fmt.Fprintf(w, "%s — %s\n", e.ID, e.Title)
		fmt.Fprintf(w, "================================================================\n")
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "aprof-experiments:", e.ID, "failed:", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\n[%s completed in %.2fs]\n\n", e.ID, time.Since(start).Seconds())
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "aprof-experiments:", err)
		os.Exit(1)
	}
}
