package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pipebd/internal/hw"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestGoldenSimulatorOutput pins ROADMAP's "the simulator's Table 2 /
// Fig. 4 outputs stay byte-identical": every text table on the paper's
// 4x A6000 system, and Fig. 4 on the memory-tight 4x 2080Ti, is compared
// with a file generated before the change under review.
func TestGoldenSimulatorOutput(t *testing.T) {
	sys := hw.A6000x4()
	cases := []struct {
		name string
		out  func() string
	}{
		{"fig2", func() string { return FormatFig2(Fig2(sys, quick)) }},
		{"fig4", func() string { return FormatFig4(Fig4(sys, quick)) }},
		{"fig4-2080ti", func() string { return FormatFig4(Fig4(hw.RTX2080Tix4(), quick)) }},
		{"fig5", func() string { return FormatFig5(Fig5(quick)) }},
		{"fig6", func() string { return FormatFig6(Fig6(sys, quick)) }},
		{"fig7", func() string { return FormatFig7(Fig7(sys, quick)) }},
		{"table2", func() string { return FormatTable2(Table2(sys, quick, true)) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", c.name+".golden")
			got := c.out()
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s (regenerate with -update only if the change is meant)\n--- got\n%s--- want\n%s",
					c.name, path, got, want)
			}
		})
	}
}
