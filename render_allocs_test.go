package queryvis_test

import (
	"testing"

	queryvis "repro"
	"repro/internal/corpus"
	"repro/internal/dot"
	"repro/internal/schema"
	"repro/internal/svg"
)

// Allocation ceilings for one render of the Fig. 1 diagram, with and
// without the race detector (which adds its own allocations). When set,
// the renders allocated 129 (DOT) and 245 (SVG) times, 199 and 308 under
// -race; building the label escaper on every call took them to 273 and
// 397.
var renderAllocCeilings = map[bool]struct{ dot, svg float64 }{
	false: {dot: 140, svg: 265},
	true:  {dot: 215, svg: 330},
}

func TestRenderAllocsFig1(t *testing.T) {
	res, err := queryvis.FromSQL(corpus.Fig1UniqueSet, schema.Beers(), queryvis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ceil := renderAllocCeilings[raceEnabled]
	for _, c := range []struct {
		name   string
		render func()
		max    float64
	}{
		{"DOT", func() { dot.Render(res.Diagram) }, ceil.dot},
		{"SVG", func() { svg.Render(res.Diagram) }, ceil.svg},
	} {
		n := testing.AllocsPerRun(20, c.render)
		t.Logf("%s render of Fig. 1: %.0f allocs", c.name, n)
		if n > c.max {
			t.Errorf("%s render of Fig. 1 allocates %.0f times, want <= %.0f", c.name, n, c.max)
		}
	}
}
