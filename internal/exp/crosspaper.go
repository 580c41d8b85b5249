package exp

// Cross-paper experiments: the granularity axis. BEAR's designs are all
// line-grained (64 B allocation units); Banshee (Yu et al.) and TicToc
// (Young et al.) attack the same tag- and fill-bandwidth bloat by moving to
// page-grained (4 KB) allocation with on-chip tags. The xgran experiment
// puts the four designs side by side on BEAR's own bandwidth-bloat
// decomposition, which makes the trade visible in one table: page tags
// erase the probe categories but Banshee's whole-page fills re-inflate
// Miss-Fill (throttled by FBR admission), while TicToc's demand fills keep
// Miss-Fill line-grained and pay a residual tag-check probe instead.

import (
	"fmt"
	"io"

	"bear/internal/stats"
	"bear/internal/trace"
)

func init() {
	register(Experiment{
		ID:       "xgran",
		Artifact: "Cross-paper",
		Title:    "Allocation-unit axis: line-grained Alloy/BEAR vs page-grained Banshee/TicToc",
		About:    "16 rate workloads; dramcache/{alloy,page,banshee,tictoc}; bloat decomposition plus speedup over Alloy",
		Run: func(p Params, w io.Writer, r *Runner) error {
			designs := []struct {
				name string
				s    spec
			}{
				{"Alloy", specAlloy},
				{"BEAR", specBEAR},
				{"Banshee", specBanshee},
				{"TicToc", specTicToc},
			}
			all := make([]spec, len(designs))
			for i, d := range designs {
				all[i] = d.s
			}
			r.PrefetchRate(all, trace.RateNames())
			t := newTable("Design", "HitRate", "Hit", "MissProbe", "MissFill", "VictimRd", "WBProbe", "WBUpdate", "Total", "Speedup-vs-Alloy")
			for _, d := range designs {
				a, err := aggRate(r, d.s)
				if err != nil {
					return err
				}
				_, g, err := r.rateSpeedups(d.s, specAlloy)
				if err != nil {
					return err
				}
				l := &a.l4
				t.row(d.name, pct(l.HitRate()),
					f2(l.CategoryFactor(stats.HitProbe)), f2(l.CategoryFactor(stats.MissProbe)),
					f2(l.CategoryFactor(stats.MissFill)), f2(l.CategoryFactor(stats.VictimRead)),
					f2(l.CategoryFactor(stats.WBProbe)), f2(l.CategoryFactor(stats.WBUpdate)),
					f2(l.BloatFactor()), f3(g))
			}
			t.write(w)
			fmt.Fprintln(w, "\nReading: page tags empty the probe columns; Banshee trades them for")
			fmt.Fprintln(w, "FBR-throttled page fills (Miss-Fill), TicToc for a residual tag-check")
			fmt.Fprintln(w, "probe on uncached mappings. Victim-Rd scales with each page's dirty mask.")
			return nil
		},
	})
}
