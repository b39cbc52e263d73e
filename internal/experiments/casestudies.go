package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/workloads"
)

func init() {
	registerExperiment("fig1", "Fig. 1: trms definition examples (1a and 1b)", runFig1)
	registerExperiment("fig2", "Fig. 2: producer-consumer — rms=1 vs trms=n", runFig2)
	registerExperiment("fig3", "Fig. 3: buffered external read — rms=1 vs trms=n", runFig3)
	registerExperiment("fig4", "Fig. 4: mysql_select worst-case plots under rms and trms", runFig4)
	registerExperiment("fig5", "Fig. 5: vips im_generate worst-case plots under rms and trms", runFig5)
	registerExperiment("fig6", "Fig. 6: buf_flush_buffered_writes curve fitting", runFig6)
	registerExperiment("fig7", "Fig. 7: wbuffer_write_thread profile richness by input source", runFig7)
	registerExperiment("fig8", "Fig. 8: Protocol::send_eof workload plots", runFig8)
	registerExperiment("fig9", "Fig. 9: thread-induced vs external input per routine (mysqld, vips)", runFig9)
}

func runFig1(cfg Config) error {
	for _, name := range []string{"fig1a", "fig1b"} {
		p, err := profileWorkload(name, cfg, core.Options{}, workloads.Params{})
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.Out, "%s:\n", name)
		var rows [][]string
		for _, rn := range p.RoutineNames() {
			a := p.Routines[rn].Merged()
			rows = append(rows, []string{rn,
				fmt.Sprint(a.SumTRMS), fmt.Sprint(a.SumRMS),
				fmt.Sprint(a.InducedThread), fmt.Sprint(a.InducedExternal)})
		}
		report.Table(cfg.Out, []string{"routine", "trms", "rms", "induced(thread)", "induced(external)"}, rows)
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintln(cfg.Out, "expected: fig1a f has trms=2 rms=1; fig1b f has trms=2 rms=1, h has trms=1 rms=1")
	return nil
}

func runFig2(cfg Config) error {
	sizes := []int{8, 16, 32, 64}
	if cfg.Quick {
		sizes = []int{8, 16}
	}
	var rows [][]string
	for _, n := range sizes {
		p, err := profileWorkload("producer-consumer", cfg, core.Options{}, workloads.Params{Size: n})
		if err != nil {
			return err
		}
		a := p.Routine("consumer").Merged()
		rows = append(rows, []string{fmt.Sprint(n), fmt.Sprint(a.SumTRMS), fmt.Sprint(a.SumRMS)})
	}
	fmt.Fprintln(cfg.Out, "consumer routine input sizes by produced values n (paper: trms=n, rms=1):")
	report.Table(cfg.Out, []string{"n", "trms", "rms"}, rows)
	return nil
}

func runFig3(cfg Config) error {
	sizes := []int{8, 16, 32, 64}
	if cfg.Quick {
		sizes = []int{8, 16}
	}
	var rows [][]string
	for _, n := range sizes {
		p, err := profileWorkload("external-read", cfg, core.Options{}, workloads.Params{Size: n})
		if err != nil {
			return err
		}
		a := p.Routine("externalRead").Merged()
		rows = append(rows, []string{fmt.Sprint(n), fmt.Sprint(a.SumTRMS), fmt.Sprint(a.SumRMS),
			fmt.Sprint(a.InducedExternal)})
	}
	fmt.Fprintln(cfg.Out, "externalRead input sizes by iterations n (paper: trms=n, rms~1):")
	report.Table(cfg.Out, []string{"n", "trms", "rms", "external"}, rows)
	return nil
}

func runFig4(cfg Config) error {
	p, err := profileWorkload("mysqld", cfg, core.Options{}, workloads.Params{})
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "mysql_select scans tables of geometrically increasing size through a 4-frame buffer pool.")
	fmt.Fprintln(cfg.Out, "Paper: against rms the running time appears to grow superlinearly (the pool bounds rms);")
	fmt.Fprintln(cfg.Out, "against trms the growth is linear, the routine's true behaviour.")
	return report.WriteRoutine(cfg.Out, p, "mysql_select")
}

func runFig5(cfg Config) error {
	p, err := profileWorkload("vips", cfg, core.Options{}, workloads.Params{})
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "im_generate processes regions of varying height through a recycled 3-line cache.")
	fmt.Fprintln(cfg.Out, "Paper: rms saturates at the cache footprint; trms tracks the region size, restoring linearity.")
	return report.WriteRoutine(cfg.Out, p, "im_generate")
}

func runFig6(cfg Config) error {
	params := workloads.Params{Threads: 6, Seed: 3}
	p, err := profileWorkload("mysqld", cfg, core.Options{}, params)
	if err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "buf_flush_buffered_writes drains k buffered changes and insertion-sorts them (O(k^2)).")
	fmt.Fprintln(cfg.Out, "Paper: the trms plot reveals the superlinear bottleneck; the rms plot hides it.")
	return report.WriteRoutine(cfg.Out, p, "buf_flush_buffered_writes")
}

func runFig7(cfg Config) error {
	variants := []struct {
		label string
		opts  core.Options
	}{
		{"(a) rms only", core.Options{RMSOnly: true}},
		{"(b) trms, external input only", core.Options{DisableThreadInduced: true}},
		{"(c) trms, external + thread input", core.Options{}},
	}
	var rows [][]string
	for _, v := range variants {
		p, err := profileWorkload("vips", cfg, v.opts, workloads.Params{})
		if err != nil {
			return err
		}
		rp := p.Routine("wbuffer_write_thread")
		if rp == nil {
			return fmt.Errorf("wbuffer_write_thread not profiled")
		}
		merged := rp.Merged()
		rows = append(rows, []string{v.label,
			fmt.Sprint(merged.Calls),
			fmt.Sprint(rp.DistinctTRMS()),
			fmt.Sprintf("%.1f%%", 100*report.InducedFraction(merged))})
	}
	fmt.Fprintln(cfg.Out, "wbuffer_write_thread: distinct input-size values by tracked input source")
	fmt.Fprintln(cfg.Out, "(paper: rms collapses all 110 calls onto 2 values; adding external and thread")
	fmt.Fprintln(cfg.Out, " input grows the number of points and the meaningfulness of the plot)")
	report.Table(cfg.Out, []string{"configuration", "calls", "distinct sizes", "induced share"}, rows)
	return nil
}

func runFig8(cfg Config) error {
	p, err := profileWorkload("mysqld", cfg, core.Options{}, workloads.Params{})
	if err != nil {
		return err
	}
	rp := p.Routine("Protocol::send_eof")
	if rp == nil {
		return fmt.Errorf("Protocol::send_eof not profiled")
	}
	merged := rp.Merged()
	fmt.Fprintln(cfg.Out, "Protocol::send_eof workload plots (activations per distinct input size):")
	for _, metric := range []struct {
		name string
		hist map[uint64]*core.Point
	}{{"rms", merged.ByRMS}, {"trms", merged.ByTRMS}} {
		pts := report.Workload(metric.hist)
		fmt.Fprintf(cfg.Out, "\nworkload plot vs %s (%d distinct sizes, %d calls)\n",
			metric.name, len(pts), merged.Calls)
		report.Scatter(cfg.Out, "", pts, 64, 10)
	}
	return nil
}

func runFig9(cfg Config) error {
	for _, bench := range []string{"mysqld", "vips"} {
		p, err := profileWorkload(bench, cfg, core.Options{}, workloads.Params{})
		if err != nil {
			return err
		}
		splits := report.PerRoutineInduced(p)
		fmt.Fprintf(cfg.Out, "%s — routines by share of induced input (top %d):\n", bench, min(len(splits), 12))
		var rows [][]string
		for _, s := range splits[:min(len(splits), 12)] {
			rows = append(rows, []string{s.Name,
				fmt.Sprintf("%.1f%%", s.InducedPct),
				fmt.Sprintf("%.1f%%", s.ThreadPct),
				fmt.Sprintf("%.1f%%", s.ExternalPct)})
		}
		report.Table(cfg.Out, []string{"routine", "induced share of trms", "thread part", "external part"}, rows)
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintln(cfg.Out, "paper: most induced input of MySQL routines is external; vips routines are thread-dominated")
	return nil
}
