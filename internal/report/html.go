package report

import (
	"fmt"
	"html/template"
	"io"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/fit"
)

// HTML report: a self-contained page with inline SVG cost plots per routine,
// the execution summary, and the induced-input characterization — the
// shareable form of the profiler's output.

// HTMLOptions controls WriteHTMLReport.
type HTMLOptions struct {
	// Title heads the page (default "Input-sensitive profile").
	Title string
	// Top bounds the number of routines rendered (0: all).
	Top int
}

func (o HTMLOptions) withDefaults() HTMLOptions {
	if o.Title == "" {
		o.Title = "Input-sensitive profile"
	}
	return o
}

type htmlReport struct {
	Title           string
	Routines        int
	InducedThread   uint64
	InducedExternal uint64
	ThreadPct       string
	ExternalPct     string
	Rows            []htmlRow
	Sections        []htmlSection
}

type htmlRow struct {
	Name                      string
	Calls, Cost, TRMS         uint64
	DistinctTRMS, DistinctRMS int
	Volume                    string
}

type htmlSection struct {
	Name     string
	Points   int
	BestFit  string
	PowerLaw string
	Induced  string
	SVG      template.HTML
}

var htmlTmpl = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{{.Title}}</title>
<style>
body { font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto; max-width: 70rem; color: #1a1a2e; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; font-variant-numeric: tabular-nums; }
th, td { text-align: left; padding: .25rem .6rem; border-bottom: 1px solid #ddd; }
th { border-bottom: 2px solid #999; }
.meta { color: #555; }
svg { background: #fafafa; border: 1px solid #ddd; }
</style></head><body>
<h1>{{.Title}}</h1>
<p class="meta">{{.Routines}} routines &middot; induced first-accesses:
{{.InducedThread}} thread-induced ({{.ThreadPct}}), {{.InducedExternal}} external ({{.ExternalPct}})</p>
<table>
<tr><th>routine</th><th>calls</th><th>cost (BB)</th><th>trms</th><th>|trms|</th><th>|rms|</th><th>input volume</th></tr>
{{range .Rows}}<tr><td>{{.Name}}</td><td>{{.Calls}}</td><td>{{.Cost}}</td><td>{{.TRMS}}</td><td>{{.DistinctTRMS}}</td><td>{{.DistinctRMS}}</td><td>{{.Volume}}</td></tr>
{{end}}</table>
{{range .Sections}}
<h2>{{.Name}}</h2>
<p class="meta">{{.Points}} distinct input sizes &middot; best model {{.BestFit}} &middot; power law {{.PowerLaw}}{{if .Induced}} &middot; {{.Induced}}{{end}}</p>
{{.SVG}}
{{end}}
</body></html>
`))

// WriteHTMLReport renders a self-contained HTML report with SVG cost plots.
func WriteHTMLReport(w io.Writer, p *core.Profile, opts HTMLOptions) error {
	opts = opts.withDefaults()

	tp, ep := InducedSplit(p)
	data := htmlReport{
		Title:           opts.Title,
		Routines:        len(p.RoutineNames()),
		InducedThread:   p.InducedThread,
		InducedExternal: p.InducedExternal,
		ThreadPct:       fmt.Sprintf("%.1f%%", tp),
		ExternalPct:     fmt.Sprintf("%.1f%%", ep),
	}
	for _, e := range byCost(p, opts.Top) {
		data.Rows = append(data.Rows, htmlRow{
			Name:         e.name,
			Calls:        e.a.Calls,
			Cost:         e.a.SumCost,
			TRMS:         e.a.SumTRMS,
			DistinctTRMS: e.rp.DistinctTRMS(),
			DistinctRMS:  e.rp.DistinctRMS(),
			Volume:       fmt.Sprintf("%.1f%%", 100*InputVolume(e.a)),
		})
		pts := WorstCase(e.a.ByTRMS)
		if len(pts) < minPoints {
			continue
		}
		sec := htmlSection{Name: e.name, Points: len(pts), SVG: template.HTML(scatterSVG(pts, 560, 240))}
		if best, err := fit.Best(pts); err == nil {
			sec.BestFit = best.String()
		}
		if pl, err := fit.FitPowerLaw(pts); err == nil {
			sec.PowerLaw = pl.String()
		}
		if induced := e.a.InducedThread + e.a.InducedExternal; induced > 0 {
			sec.Induced = fmt.Sprintf("induced input %.1f%% thread / %.1f%% external",
				100*float64(e.a.InducedThread)/float64(induced),
				100*float64(e.a.InducedExternal)/float64(induced))
		}
		data.Sections = append(data.Sections, sec)
	}
	return htmlTmpl.Execute(w, data)
}

// scatterSVG renders points as a standalone SVG scatter plot with axes.
// Axes switch to log scale when the data spans more than two decades.
func scatterSVG(pts []fit.Point, width, height int) string {
	const margin = 44
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
	spanX := tx(maxX) - tx(minX)
	spanY := ty(maxY) - ty(minY)
	px := func(v float64) float64 {
		if spanX == 0 {
			return margin
		}
		return margin + (tx(v)-tx(minX))/spanX*float64(width-2*margin)
	}
	py := func(v float64) float64 {
		if spanY == 0 {
			return float64(height - margin)
		}
		return float64(height-margin) - (ty(v)-ty(minY))/spanY*float64(height-2*margin)
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" role="img">`,
		width, height, width, height)
	// Axes.
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#888"/>`,
		margin, height-margin, width-margin/2, height-margin)
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#888"/>`,
		margin, height-margin, margin, margin/2)
	// Axis labels.
	xl, yl := "input size (trms)", "worst-case cost (BB)"
	if logX {
		xl += " [log]"
	}
	if logY {
		yl += " [log]"
	}
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="11" fill="#555">%s</text>`,
		width/2-40, height-8, xl)
	fmt.Fprintf(&sb, `<text x="12" y="%d" font-size="11" fill="#555" transform="rotate(-90 12 %d)">%s</text>`,
		height/2, height/2, yl)
	// Extremes.
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="10" fill="#777">%.4g</text>`, margin-4, height-margin+14, minX)
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="10" fill="#777" text-anchor="end">%.4g</text>`, width-margin/2, height-margin+14, maxX)
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="10" fill="#777" text-anchor="end">%.4g</text>`, margin-6, height-margin, minY)
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-size="10" fill="#777" text-anchor="end">%.4g</text>`, margin-6, margin/2+8, maxY)
	// Points.
	for _, p := range pts {
		fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="3" fill="#3455bd" fill-opacity="0.75"/>`, px(p.N), py(p.Cost))
	}
	sb.WriteString(`</svg>`)
	return sb.String()
}
