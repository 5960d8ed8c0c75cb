package experiments

import "strings"

// Figure is one runnable entry of the evaluation: it regenerates a table or
// figure of the paper (or the chaos harness) and renders it as text.
type Figure struct {
	Name string
	// Paper marks the entries that belong to the paper's evaluation; the
	// chaos harness is a robustness gate, not a figure, and only runs when
	// asked for by name.
	Paper bool
	Run   func(Options) (string, error)
}

// Catalog returns every figure in the canonical output order used by
// cmd/damnbench, the determinism tests and the bench harness.
func Catalog() []Figure {
	return []Figure{
		figure("table1", true, Table1, RenderTable1),
		figure("fig4", true, Fig4, RenderFig4),
		figure("fig5", true, Fig5, RenderFig5),
		figure("fig6", true, Fig6, RenderFig6),
		figure("table3", true, Table3, RenderTable3),
		figure("fig2", true, Fig2, RenderFig2),
		figure("fig7", true, Fig7, RenderFig7),
		figure("fig8", true, Fig8, RenderFig8),
		figure("fig9", true, Fig9, RenderFig9),
		figure("fig10", true, Fig10, RenderFig10),
		figure("fig11", true, Fig11, RenderFig11),
		figure("ablations", true, Ablations, RenderAblations),
		figure("footnote5", true, Footnote5, RenderFootnote5),
		figure("scaling", false, Scaling, RenderScaling),
		figure("chaos", false, Chaos, RenderChaos),
		figure("recovery", false, RecoveryFigure, RenderRecovery),
		figure("loss", false, Loss, RenderLoss),
		figure("cluster", false, Cluster, RenderCluster),
		figure("tenants", false, Tenants, RenderTenants),
		figure("bypass", false, Bypass, RenderBypass),
		figure("attacks", false, Attacks, RenderAttacks),
	}
}

// figure builds a catalog entry from a figure's run and render functions.
func figure[R any](name string, paper bool, run func(Options) (R, error), render func(R) string) Figure {
	return Figure{Name: name, Paper: paper, Run: func(o Options) (string, error) {
		rows, err := run(o)
		if err != nil {
			return "", err
		}
		return render(rows), nil
	}}
}

// RunSuite runs every paper figure of the catalog in order and returns the
// concatenated rendered output. This is the determinism contract surface:
// the returned text is byte-identical for any Options.Parallel value.
func RunSuite(opts Options) (string, error) {
	var b strings.Builder
	for _, fig := range Catalog() {
		if !fig.Paper {
			continue
		}
		out, err := fig.Run(opts)
		if err != nil {
			return "", err
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	return b.String(), nil
}
