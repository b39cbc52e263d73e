package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/fit"
)

// Scatter renders a cost plot as ASCII art, the CLI's stand-in for the
// paper's gnuplot charts. Axes switch to log scale automatically when the
// data spans more than two decades.
func Scatter(w io.Writer, title string, pts []fit.Point, width, height int) {
	if width < 20 {
		width = 60
	}
	if height < 5 {
		height = 16
	}
	fmt.Fprintf(w, "%s\n", title)
	if len(pts) == 0 {
		fmt.Fprintln(w, "  (no points)")
		return
	}

	minX, maxX := pts[0].N, pts[0].N
	minY, maxY := pts[0].Cost, pts[0].Cost
	for _, p := range pts {
		minX, maxX = math.Min(minX, p.N), math.Max(maxX, p.N)
		minY, maxY = math.Min(minY, p.Cost), math.Max(maxY, p.Cost)
	}
	logX := minX > 0 && maxX/math.Max(minX, 1) > 100
	logY := minY > 0 && maxY/math.Max(minY, 1) > 100
	tx := func(v float64) float64 {
		if logX {
			return math.Log(v)
		}
		return v
	}
	ty := func(v float64) float64 {
		if logY {
			return math.Log(v)
		}
		return v
	}

	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	spanX := tx(maxX) - tx(minX)
	spanY := ty(maxY) - ty(minY)
	for _, p := range pts {
		col := 0
		if spanX > 0 {
			col = int((tx(p.N) - tx(minX)) / spanX * float64(width-1))
		}
		row := height - 1
		if spanY > 0 {
			row = height - 1 - int((ty(p.Cost)-ty(minY))/spanY*float64(height-1))
		}
		grid[clamp(row, 0, height-1)][clamp(col, 0, width-1)] = '*'
	}

	yLabel := func(v float64) string { return fmt.Sprintf("%11.4g", v) }
	fmt.Fprintf(w, "%s +%s\n", yLabel(maxY), string(grid[0]))
	for i := 1; i < height-1; i++ {
		fmt.Fprintf(w, "%11s |%s\n", "", string(grid[i]))
	}
	fmt.Fprintf(w, "%s +%s\n", yLabel(minY), string(grid[height-1]))
	axes := ""
	if logX {
		axes += " [log x]"
	}
	if logY {
		axes += " [log y]"
	}
	fmt.Fprintf(w, "%11s  %-*.4g%*.4g%s\n", "", width/2, minX, width-width/2, maxX, axes)
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Table writes rows under headers with aligned columns.
func Table(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, 0, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts = append(parts, fmt.Sprintf("%-*s", widths[i], c))
			} else {
				parts = append(parts, c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range rows {
		printRow(row)
	}
}

// WriteCSV writes points as "n,cost" lines with a header.
func WriteCSV(w io.Writer, xName, yName string, pts []fit.Point) error {
	if _, err := fmt.Fprintf(w, "%s,%s\n", xName, yName); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%g,%g\n", p.N, p.Cost); err != nil {
			return err
		}
	}
	return nil
}
