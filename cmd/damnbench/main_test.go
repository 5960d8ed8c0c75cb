package main

import (
	"reflect"
	"strings"
	"testing"

	"github.com/asplos18/damn/internal/experiments"
)

func TestSelectFigures(t *testing.T) {
	var paper []string
	for _, fig := range experiments.Catalog() {
		if fig.Paper {
			paper = append(paper, fig.Name)
		}
	}
	with := func(extra ...string) []string {
		return append(append([]string(nil), paper...), extra...)
	}
	for _, tc := range []struct {
		exp      string
		recovery bool
		want     []string // nil: rejected
	}{
		{exp: "table1,fgi5"},
		{exp: "fig4,"},
		{exp: "all", want: paper},
		{exp: "all,bypass", want: with("bypass")},
		{exp: "fig4, table1", want: []string{"table1", "fig4"}},
		{exp: "all", recovery: true, want: with("recovery")},
		{exp: "chaos", recovery: true, want: []string{"chaos", "recovery"}},
	} {
		figs, err := selectFigures(tc.exp, tc.recovery)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), "valid: all, table1, fig4") {
				t.Errorf("-exp %q: err = %v, want a rejection listing the valid names", tc.exp, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-exp %q -recovery=%v: %v", tc.exp, tc.recovery, err)
			continue
		}
		var got []string
		for _, fig := range figs {
			got = append(got, fig.Name)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("-exp %q -recovery=%v runs %v, want %v", tc.exp, tc.recovery, got, tc.want)
		}
	}
}
