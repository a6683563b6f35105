// Package svg renders QueryVis diagrams as self-contained SVG documents,
// removing the GraphViz dependency for consumers that want an image
// directly. The layout is layered, mirroring the paper's figures: the
// SELECT box on the left, then one column per nesting depth, with the
// tables of one query block stacked together inside their quantifier box
// (dashed stroke for ∄, double stroke for ∀). Row colors follow the
// tutorial legend: black table headers, yellow selection-predicate rows,
// gray GROUP BY rows.
package svg

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/trc"
)

// Geometry constants (pixels).
const (
	rowH    = 22
	charW   = 7.5
	cellPad = 10
	colGap  = 80
	rowGap  = 26
	boxPad  = 10
	margin  = 24
	fontPx  = 12
)

// rect is a laid-out rectangle.
type rect struct {
	x, y, w, h float64
}

type layout struct {
	d      *core.Diagram
	tables map[int]rect // table ID -> frame
	boxes  []rect       // parallel to d.Boxes
	width  float64
	height float64
}

// tableSize computes a table node's frame size from its rows.
func tableSize(t *core.TableNode) (w, h float64) {
	longest := len(t.Name)
	for _, r := range t.Rows {
		if n := len(r.Label()); n > longest {
			longest = n
		}
	}
	w = float64(longest)*charW + 2*cellPad
	if w < 90 {
		w = 90
	}
	h = float64(1+len(t.Rows)) * rowH
	return w, h
}

// computeLayout assigns positions: column = depth+1 (SELECT box at 0),
// tables of one group kept adjacent, groups stacked per column.
func computeLayout(d *core.Diagram) *layout {
	l := &layout{d: d, tables: map[int]rect{}}

	// Column assignment.
	colOf := map[int]int{core.SelectBoxID: 0}
	maxCol := 0
	for _, t := range d.Tables[1:] {
		c := d.TrueDepth(t.ID) + 1
		colOf[t.ID] = c
		if c > maxCol {
			maxCol = c
		}
	}

	// Order tables within a column: group members adjacent, groups by
	// first table ID.
	groups := d.Groups()
	groupOf := map[int]int{}
	for gi, g := range groups {
		for _, id := range g {
			groupOf[id] = gi
		}
	}
	byCol := make([][]int, maxCol+1)
	byCol[0] = []int{core.SelectBoxID}
	for _, t := range d.Tables[1:] {
		byCol[colOf[t.ID]] = append(byCol[colOf[t.ID]], t.ID)
	}
	for c := 1; c <= maxCol; c++ {
		sort.Slice(byCol[c], func(i, j int) bool {
			gi, gj := groupOf[byCol[c][i]], groupOf[byCol[c][j]]
			if gi != gj {
				return gi < gj
			}
			return byCol[c][i] < byCol[c][j]
		})
	}

	// Column widths, then x positions.
	colW := make([]float64, maxCol+1)
	for c, ids := range byCol {
		for _, id := range ids {
			w, _ := tableSize(d.Table(id))
			if w > colW[c] {
				colW[c] = w
			}
		}
	}
	colX := make([]float64, maxCol+1)
	x := float64(margin)
	for c := 0; c <= maxCol; c++ {
		colX[c] = x
		x += colW[c] + colGap
	}
	l.width = x - colGap + margin

	// Stack tables in each column, leaving extra gap between groups so
	// quantifier boxes do not collide.
	maxY := 0.0
	for c, ids := range byCol {
		y := float64(margin) + float64(boxPad)
		prevGroup := -1
		for _, id := range ids {
			g := groupOf[id]
			if prevGroup != -1 && g != prevGroup {
				y += 2 * boxPad
			}
			prevGroup = g
			w, h := tableSize(d.Table(id))
			l.tables[id] = rect{x: colX[c], y: y, w: w, h: h}
			y += h + rowGap
			_ = w
		}
		if y > maxY {
			maxY = y
		}
	}
	l.height = maxY + margin

	// Quantifier boxes: bounding rectangle of their member tables.
	for _, b := range d.Boxes {
		var fr rect
		first := true
		for _, id := range b.Tables {
			tr := l.tables[id]
			if first {
				fr = tr
				first = false
				continue
			}
			x2 := maxf(fr.x+fr.w, tr.x+tr.w)
			y2 := maxf(fr.y+fr.h, tr.y+tr.h)
			fr.x = minf(fr.x, tr.x)
			fr.y = minf(fr.y, tr.y)
			fr.w = x2 - fr.x
			fr.h = y2 - fr.y
		}
		fr.x -= boxPad
		fr.y -= boxPad
		fr.w += 2 * boxPad
		fr.h += 2 * boxPad
		l.boxes = append(l.boxes, fr)
		if fr.x+fr.w+margin > l.width {
			l.width = fr.x + fr.w + margin
		}
		if fr.y+fr.h+margin > l.height {
			l.height = fr.y + fr.h + margin
		}
	}
	return l
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// rowAnchor returns the left and right midpoints of a row cell.
func (l *layout) rowAnchor(end core.EdgeEnd) (left, right [2]float64) {
	fr := l.tables[end.Table]
	y := fr.y + float64(1+end.Row)*rowH + rowH/2
	return [2]float64{fr.x, y}, [2]float64{fr.x + fr.w, y}
}

// escaper is built once and shared; strings.Replacer is safe for
// concurrent use.
var escaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func esc(s string) string { return escaper.Replace(s) }

// Render produces a standalone SVG document for the diagram.
func Render(d *core.Diagram) string {
	// context.Background() is never done, so render cannot fail here.
	s, _ := RenderContext(context.Background(), d)
	return s
}

// RenderContext is Render with cooperative cancellation: layout and
// emission check ctx every few hundred elements and abandon the render
// with ctx.Err() once the context is done.
func RenderContext(ctx context.Context, d *core.Diagram) (string, error) {
	step := 0
	check := func() error {
		if step++; step&255 != 0 {
			return nil
		}
		return ctx.Err()
	}
	// The amortized check only fires every 256 steps; small diagrams need
	// this upfront check to notice a done context at all.
	if err := ctx.Err(); err != nil {
		return "", err
	}
	l := computeLayout(d)
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f" font-family="Helvetica, Arial, sans-serif" font-size="%d">`,
		l.width, l.height, l.width, l.height, fontPx)
	b.WriteString("\n")
	b.WriteString(`<defs><marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" markerWidth="7" markerHeight="7" orient="auto-start-reverse"><path d="M 0 0 L 10 5 L 0 10 z" fill="#333"/></marker></defs>`)
	b.WriteString("\n")

	// Quantifier boxes behind everything.
	for i, fr := range l.boxes {
		switch l.d.Boxes[i].Quant {
		case trc.ForAll:
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" rx="8" fill="none" stroke="#333" stroke-width="1"/>`,
				fr.x, fr.y, fr.w, fr.h)
			b.WriteString("\n")
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" rx="6" fill="none" stroke="#333" stroke-width="1"/>`,
				fr.x+3, fr.y+3, fr.w-6, fr.h-6)
		default: // ∄
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" rx="8" fill="none" stroke="#333" stroke-width="1" stroke-dasharray="6 4"/>`,
				fr.x, fr.y, fr.w, fr.h)
		}
		b.WriteString("\n")
	}

	// Edges beneath tables so lines attach cleanly.
	for _, e := range d.Edges {
		if err := check(); err != nil {
			return "", err
		}
		fl, frt := l.rowAnchor(e.From)
		tl, trt := l.rowAnchor(e.To)
		// Pick the closer pair of anchors.
		var x1, y1, x2, y2 float64
		if frt[0] <= tl[0] { // from is left of to
			x1, y1, x2, y2 = frt[0], frt[1], tl[0], tl[1]
		} else if trt[0] <= fl[0] { // to is left of from
			x1, y1, x2, y2 = fl[0], fl[1], trt[0], trt[1]
		} else { // same column: connect right edges with a small bow
			x1, y1, x2, y2 = frt[0], frt[1], trt[0], trt[1]
		}
		marker := ""
		if e.Directed {
			marker = ` marker-end="url(#arrow)"`
		}
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#333" stroke-width="1.2"%s/>`,
			x1, y1, x2, y2, marker)
		b.WriteString("\n")
		if lab := e.Label(); lab != "" {
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle" fill="#333">%s</text>`,
				(x1+x2)/2, (y1+y2)/2-4, esc(lab))
			b.WriteString("\n")
		}
	}

	// Tables.
	for _, t := range d.Tables {
		if err := check(); err != nil {
			return "", err
		}
		fr := l.tables[t.ID]
		headFill, headText := "#000", "#fff"
		if t.IsSelect() {
			headFill, headText = "#ccc", "#000"
		}
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%d" fill="%s" stroke="#000"/>`,
			fr.x, fr.y, fr.w, rowH, headFill)
		b.WriteString("\n")
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle" fill="%s" font-weight="bold">%s</text>`,
			fr.x+fr.w/2, fr.y+rowH-7, headText, esc(t.Name))
		b.WriteString("\n")
		for i, r := range t.Rows {
			if err := check(); err != nil {
				return "", err
			}
			y := fr.y + float64(1+i)*rowH
			fill := "#fff"
			switch r.Kind {
			case core.RowSelection:
				fill = "#fdf6c3" // yellow
			case core.RowGroupBy:
				fill = "#e3e3e3" // gray
			}
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%d" fill="%s" stroke="#000"/>`,
				fr.x, y, fr.w, rowH, fill)
			b.WriteString("\n")
			fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" text-anchor="middle" fill="#000">%s</text>`,
				fr.x+fr.w/2, y+rowH-7, esc(r.Label()))
			b.WriteString("\n")
		}
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}
