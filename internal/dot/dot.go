// Package dot renders QueryVis diagrams as GraphViz DOT programs —
// the paper renders its diagrams "with the help of GraphViz" (Appendix
// A.4, [32]) — and as plain-text summaries for terminals.
//
// The emitted DOT uses HTML-like table labels: a black header row with
// the relation name (gray for the SELECT box), one cell per row, yellow
// cells for in-place selection predicates, and gray cells for GROUP BY
// attributes. Quantifier boxes become clusters: dashed for ∄ and
// two-peripheries for ∀. Edges attach to row ports so lines touch the
// attribute cells they join.
//
// Only DOT text is produced; rasterizing it with the dot binary is
// outside the pipeline's algorithmic content.
package dot

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/trc"
)

// Options controls rendering.
type Options struct {
	// Name is the graph name; defaults to "queryvis".
	Name string
	// RankDir is the GraphViz rankdir; defaults to "LR" to match the
	// paper's left-to-right reading order.
	RankDir string
	// ShowVars annotates each table with its tuple variable in red, like
	// the L1..L6 annotations of Fig. 1b.
	ShowVars bool
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "queryvis"
	}
	if o.RankDir == "" {
		o.RankDir = "LR"
	}
	return o
}

// Render emits the diagram as a DOT program with default options.
func Render(d *core.Diagram) string { return RenderWith(d, Options{}) }

// RenderContext is RenderWith with cooperative cancellation: rendering
// checks ctx every few hundred tables and edges and stops with ctx.Err()
// once the context is done, so emitting DOT for an enormous diagram
// cannot outlive its request.
func RenderContext(ctx context.Context, d *core.Diagram, opts Options) (string, error) {
	opts = opts.withDefaults()
	var b strings.Builder
	if err := render(ctx, &b, d, opts); err != nil {
		return "", err
	}
	return b.String(), nil
}

// RenderWith emits the diagram as a DOT program.
func RenderWith(d *core.Diagram, opts Options) string {
	opts = opts.withDefaults()
	var b strings.Builder
	// context.Background() is never done, so render cannot fail here.
	_ = render(context.Background(), &b, d, opts)
	return b.String()
}

// render is the single rendering implementation behind RenderWith and
// RenderContext.
func render(ctx context.Context, b *strings.Builder, d *core.Diagram, opts Options) error {
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
		return err
	}
	fmt.Fprintf(b, "digraph %s {\n", quoteID(opts.Name))
	fmt.Fprintf(b, "  rankdir=%s;\n", opts.RankDir)
	b.WriteString("  node [shape=plaintext fontname=\"Helvetica\"];\n")
	b.WriteString("  edge [fontname=\"Helvetica\" arrowsize=0.7];\n")

	boxed := map[int]int{} // table ID -> box index
	for i, bx := range d.Boxes {
		for _, id := range bx.Tables {
			boxed[id] = i
		}
	}

	// Unboxed tables first, then one cluster per quantifier box.
	for _, t := range d.Tables {
		if err := check(); err != nil {
			return err
		}
		if _, ok := boxed[t.ID]; ok {
			continue
		}
		writeTable(b, t, "  ", opts)
	}
	for i, bx := range d.Boxes {
		if err := check(); err != nil {
			return err
		}
		fmt.Fprintf(b, "  subgraph cluster_%d {\n", i)
		switch bx.Quant {
		case trc.ForAll:
			b.WriteString("    style=\"rounded\"; peripheries=2; label=\"\";\n")
		default: // ∄
			b.WriteString("    style=\"rounded,dashed\"; label=\"\";\n")
		}
		ids := append([]int(nil), bx.Tables...)
		sort.Ints(ids)
		for _, id := range ids {
			writeTable(b, d.Table(id), "    ", opts)
		}
		b.WriteString("  }\n")
	}

	for _, e := range d.Edges {
		if err := check(); err != nil {
			return err
		}
		from := fmt.Sprintf("t%d:r%d", e.From.Table, e.From.Row)
		to := fmt.Sprintf("t%d:r%d", e.To.Table, e.To.Row)
		var attrs []string
		if !e.Directed {
			attrs = append(attrs, "dir=none")
		}
		if l := e.Label(); l != "" {
			attrs = append(attrs, fmt.Sprintf("label=%s", quoteID(l)))
		}
		if e.Kind == core.EdgeSelect {
			attrs = append(attrs, "style=solid")
		}
		if len(attrs) > 0 {
			fmt.Fprintf(b, "  %s -> %s [%s];\n", from, to, strings.Join(attrs, " "))
		} else {
			fmt.Fprintf(b, "  %s -> %s;\n", from, to)
		}
	}
	b.WriteString("}\n")
	return nil
}

func writeTable(b *strings.Builder, t *core.TableNode, pad string, opts Options) {
	fmt.Fprintf(b, "%st%d [label=<\n", pad, t.ID)
	fmt.Fprintf(b, "%s  <TABLE BORDER=\"0\" CELLBORDER=\"1\" CELLSPACING=\"0\" CELLPADDING=\"4\">\n", pad)
	headerBG, headerFG := "black", "white"
	if t.IsSelect() {
		headerBG, headerFG = "gray80", "black"
	}
	name := htmlEscape(t.Name)
	if opts.ShowVars && t.Var != "" && !t.IsSelect() {
		name += fmt.Sprintf(" <FONT COLOR=\"red\">%s</FONT>", htmlEscape(t.Var))
	}
	fmt.Fprintf(b, "%s  <TR><TD BGCOLOR=\"%s\"><FONT COLOR=\"%s\"><B>%s</B></FONT></TD></TR>\n",
		pad, headerBG, headerFG, name)
	for i, r := range t.Rows {
		bg := ""
		switch r.Kind {
		case core.RowSelection:
			bg = " BGCOLOR=\"lightyellow\""
		case core.RowGroupBy:
			bg = " BGCOLOR=\"gray90\""
		}
		fmt.Fprintf(b, "%s  <TR><TD PORT=\"r%d\"%s>%s</TD></TR>\n",
			pad, i, bg, htmlEscape(r.Label()))
	}
	fmt.Fprintf(b, "%s  </TABLE>>];\n", pad)
}

// htmlEscaper is built once: a strings.Replacer compiles its lookup
// table on first use, which per-call construction repaid for every label.
var htmlEscaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;",
)

func htmlEscape(s string) string { return htmlEscaper.Replace(s) }

// quoteID quotes a DOT identifier when needed.
func quoteID(s string) string {
	plain := true
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				plain = false
			}
		default:
			plain = false
		}
	}
	if plain && s != "" {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `\"`) + `"`
}

// Text renders the diagram as indented plain text for terminals: each
// table with its rows grouped under its quantifier box, then the edge
// list in arrow notation.
func Text(d *core.Diagram) string {
	var b strings.Builder
	boxed := map[int]bool{}
	writeT := func(t *core.TableNode, pad string) {
		header := t.Name
		if t.Var != "" && !t.IsSelect() {
			header += " (" + t.Var + ")"
		}
		fmt.Fprintf(&b, "%s%s\n", pad, header)
		for _, r := range t.Rows {
			marker := ""
			switch r.Kind {
			case core.RowSelection:
				marker = " [sel]"
			case core.RowGroupBy:
				marker = " [group]"
			}
			fmt.Fprintf(&b, "%s  %s%s\n", pad, r.Label(), marker)
		}
	}
	for _, bx := range d.Boxes {
		for _, id := range bx.Tables {
			boxed[id] = true
		}
	}
	for _, t := range d.Tables {
		if !boxed[t.ID] {
			writeT(t, "")
		}
	}
	for _, bx := range d.Boxes {
		fmt.Fprintf(&b, "%s box:\n", bx.Quant)
		for _, id := range bx.Tables {
			writeT(d.Table(id), "  ")
		}
	}
	b.WriteString("edges:\n")
	for _, e := range d.Edges {
		ft, tt := d.Table(e.From.Table), d.Table(e.To.Table)
		fn := ft.Name
		if ft.Var != "" {
			fn = ft.Var
		}
		tn := tt.Name
		if tt.Var != "" {
			tn = tt.Var
		}
		arrow := "--"
		if e.Directed {
			arrow = "->"
		}
		label := ""
		if l := e.Label(); l != "" {
			label = " [" + l + "]"
		}
		fmt.Fprintf(&b, "  %s.%s %s %s.%s%s\n",
			fn, ft.Rows[e.From.Row].Label(), arrow,
			tn, tt.Rows[e.To.Row].Label(), label)
	}
	return b.String()
}
