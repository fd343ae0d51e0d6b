package feature

import (
	"fmt"
	"strings"

	"seqrep/internal/rep"
)

// PeakTable renders the paper's Table 1 for a representation: one row per
// peak with the rising and descending functions and the start/end points
// of the respective subsequences. Functions are printed in the paper's
// annotation style (e.g. "22x-5839").
func PeakTable(fs *rep.FunctionSeries, peaks []Peak) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-18s %-12s %-12s %-18s %-12s %-12s\n",
		"Peak", "Rising Function", "RStart", "REnd", "Descending Function", "DStart", "DEnd")
	for i, p := range peaks {
		if p.RisingSeg < 0 || p.RisingSeg >= len(fs.Segments) ||
			p.DescendingSeg < 0 || p.DescendingSeg >= len(fs.Segments) {
			return "", fmt.Errorf("feature: peak %d references segment out of range", i)
		}
		rc, err := fs.Curve(p.RisingSeg)
		if err != nil {
			return "", fmt.Errorf("feature: peak %d rising curve: %w", i, err)
		}
		dc, err := fs.Curve(p.DescendingSeg)
		if err != nil {
			return "", fmt.Errorf("feature: peak %d descending curve: %w", i, err)
		}
		fmt.Fprintf(&b, "%-5d %-18s %-12s %-12s %-18s %-12s %-12s\n",
			i+1,
			rc.String(),
			fmtPoint(p.RStart.T, p.RStart.V),
			fmtPoint(p.REnd.T, p.REnd.V),
			dc.String(),
			fmtPoint(p.DStart.T, p.DStart.V),
			fmtPoint(p.DEnd.T, p.DEnd.V),
		)
	}
	return b.String(), nil
}

func fmtPoint(t, v float64) string {
	return fmt.Sprintf("(%.0f,%.0f)", t, v)
}
