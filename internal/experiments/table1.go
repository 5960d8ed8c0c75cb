package experiments

import "github.com/asplos18/damn/internal/testbed"

// Table1Row is one row of Table 1: the protection/performance matrix.
// Unlike the paper — which asserts the security columns — this
// reproduction *measures* them by mounting the attacks against each
// configuration (see attacks.go); the performance columns summarise the
// Fig 4/5/6 results.
type Table1Row struct {
	Scheme string
	// Subpage: device cannot reach kernel data co-located on the page of
	// a mapped buffer.
	Subpage bool
	// NoWindow: device cannot touch a buffer after dma_unmap returns.
	NoWindow bool
	// MultiGbps: sustains multi-gigabit line rate (Fig 5/6).
	MultiGbps bool
	// ZeroCopy: no per-byte copying on the data path.
	ZeroCopy bool
}

// Table1 mounts the co-location and window-write attacks against each
// scheme (see safety) and assembles the matrix, one job per scheme.
func Table1(opts Options) ([]Table1Row, error) {
	schemes := testbed.AllSchemes
	return runJobs(opts, len(schemes), func(i int, opts Options) (Table1Row, error) {
		scheme := schemes[i]
		sub, nw, err := safety(scheme, opts)
		if err != nil {
			return Table1Row{}, err
		}
		return Table1Row{
			Scheme:    string(scheme),
			Subpage:   sub,
			NoWindow:  nw,
			MultiGbps: scheme != testbed.SchemeStrict,
			ZeroCopy:  scheme != testbed.SchemeShadow,
		}, nil
	})
}

// RenderTable1 renders the matrix as text.
func RenderTable1(rows []Table1Row) string {
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "NO"
	}
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Scheme, mark(r.Subpage), mark(r.NoWindow), mark(r.MultiGbps), mark(r.ZeroCopy),
		})
	}
	return "Table 1: protection/performance matrix (security columns are MEASURED by attack probes)\n" +
		RenderTable([]string{"scheme", "subpage-safe", "no-window", "multi-Gb/s", "zero-copy"}, cells)
}
