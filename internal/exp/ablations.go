package exp

// Ablation experiments for the design choices DESIGN.md calls out. These
// go beyond the paper's figures: they probe the sensitivity studies the
// paper reports only as conclusions ("we conduct a sensitivity study using
// 90% probability...", "we found Delta = 1/16 gave the best overall
// performance") and the policy alternatives it discusses in prose
// (writeback-allocate, predictor quality).

import (
	"fmt"
	"io"

	"bear/internal/config"
	"bear/internal/stats"
)

// ablationWorkloads is a representative subset spanning the behaviours the
// policies react to: bypass-friendly (mcf), streaming (lbm, libq),
// reuse-heavy where bypass hurts (Gems, zeusmp), writeback-heavy (omnetpp).
var ablationWorkloads = []string{"mcf", "lbm", "libq", "omnetpp", "Gems", "zeusmp"}

func ablSpeedups(r *Runner, s, base spec) (float64, error) {
	bases := make([]Future, len(ablationWorkloads))
	vs := make([]Future, len(ablationWorkloads))
	for i, name := range ablationWorkloads {
		bases[i] = r.RateAsync(base, name)
		vs[i] = r.RateAsync(s, name)
	}
	var xs []float64
	for i := range ablationWorkloads {
		b, err := bases[i].Wait()
		if err != nil {
			return 0, err
		}
		v, err := vs[i].Wait()
		if err != nil {
			return 0, err
		}
		xs = append(xs, v.Speedup(b))
	}
	return stats.GeoMean(xs), nil
}

func init() {
	register(Experiment{
		ID:       "abl-bab",
		Artifact: "Ablation",
		Title:    "BAB bypass-probability sweep (the paper selects P=90%)",
		About:    "Section 4.2's sensitivity: speedup and hit-rate loss vs P on representative workloads",
		Run: func(p Params, w io.Writer, r *Runner) error {
			variants := []spec{specAlloy}
			for _, prob := range []float64{0.5, 0.75, 0.9, 0.95} {
				s := specBAB()
				s.prob = prob
				variants = append(variants, s)
			}
			r.PrefetchRate(variants, ablationWorkloads)
			t := newTable("P", "Speedup-vs-Alloy", "HitRate", "FillBytes/Read")
			base, err := ablAgg(r, specAlloy)
			if err != nil {
				return err
			}
			t.row("fill-always", "1.000", pct(base.l4.HitRate()), f2(fillPerRead(&base.l4)))
			for _, prob := range []float64{0.5, 0.75, 0.9, 0.95} {
				s := specBAB()
				s.prob = prob
				g, err := ablSpeedups(r, s, specAlloy)
				if err != nil {
					return err
				}
				a, err := ablAgg(r, s)
				if err != nil {
					return err
				}
				t.row(fmt.Sprintf("%.0f%%", 100*prob), f3(g), pct(a.l4.HitRate()), f2(fillPerRead(&a.l4)))
			}
			t.write(w)
			fmt.Fprintln(w, "\nExpected: speedup grows with P while the duel bounds the hit-rate loss;")
			fmt.Fprintln(w, "the paper picked P=90% on the same grounds.")
			return nil
		},
	})

	register(Experiment{
		ID:       "abl-ntc",
		Artifact: "Ablation",
		Title:    "Neighboring Tag Cache capacity sweep (the paper uses 8 entries/bank)",
		About:    "Probes saved and speedup as the per-bank NTC grows",
		Run: func(p Params, w io.Writer, r *Runner) error {
			variants := []spec{specAlloy}
			for _, n := range []int{2, 4, 8, 16, 32} {
				s := specBEAR
				s.ntcEntries = n
				variants = append(variants, s)
			}
			r.PrefetchRate(variants, ablationWorkloads)
			t := newTable("Entries/bank", "Speedup-vs-Alloy", "ProbesSaved", "ParallelSquashed")
			for _, n := range []int{2, 4, 8, 16, 32} {
				s := specBEAR
				s.ntcEntries = n
				g, err := ablSpeedups(r, s, specAlloy)
				if err != nil {
					return err
				}
				var saved, squashed uint64
				for _, name := range ablationWorkloads {
					run, err := r.Rate(s, name)
					if err != nil {
						return err
					}
					saved += run.L4.NTCProbesSaved
					squashed += run.L4.NTCParallelSqsh
				}
				t.row(n, f3(g), saved, squashed)
			}
			t.write(w)
			return nil
		},
	})

	register(Experiment{
		ID:       "abl-pred",
		Artifact: "Ablation",
		Title:    "Miss-predictor quality: always-hit vs MAP-I vs perfect oracle",
		About:    "Serialisation penalty of mispredictions on the Alloy baseline (MAP-I is the paper's choice)",
		Run: func(p Params, w io.Writer, r *Runner) error {
			variants := []spec{specAlloy}
			for _, mode := range []config.PredMode{config.PredAlwaysHit, config.PredMAPI, config.PredPerfect} {
				s := specAlloy
				s.pred = mode
				variants = append(variants, s)
			}
			r.PrefetchRate(variants, ablationWorkloads)
			t := newTable("Predictor", "Speedup-vs-MAP-I", "MissLat", "MemWastedReads")
			base := specAlloy
			for _, mode := range []config.PredMode{config.PredAlwaysHit, config.PredMAPI, config.PredPerfect} {
				s := specAlloy
				s.pred = mode
				g, err := ablSpeedups(r, s, base)
				if err != nil {
					return err
				}
				a, err := ablAgg(r, s)
				if err != nil {
					return err
				}
				t.row(mode.String(), f3(g), cyc(a.l4.AvgMissLatency()), "-")
			}
			t.write(w)
			fmt.Fprintln(w, "\nExpected: always-hit pays full probe-then-memory serialisation on misses;")
			fmt.Fprintln(w, "perfect bounds what MAP-I can recover.")
			return nil
		},
	})

	register(Experiment{
		ID:       "abl-wballoc",
		Artifact: "Ablation",
		Title:    "Writeback-allocate vs no-allocate (Section 2.3's sixth bloat source)",
		About:    "Switching the baseline to writeback-allocate activates the WB Fill category",
		Run: func(p Params, w io.Writer, r *Runner) error {
			wbAlloc := specAlloy
			wbAlloc.wbAllocate = true
			r.PrefetchRate([]spec{specAlloy, wbAlloc}, ablationWorkloads)
			t := newTable("Policy", "WBProbe", "WBUpdate", "WBFill", "Total", "Speedup")
			for _, alloc := range []bool{false, true} {
				s := specAlloy
				s.wbAllocate = alloc
				a, err := ablAgg(r, s)
				if err != nil {
					return err
				}
				g, err := ablSpeedups(r, s, specAlloy)
				if err != nil {
					return err
				}
				name := "no-allocate"
				if alloc {
					name = "allocate"
				}
				l := &a.l4
				t.row(name, f2(l.CategoryFactor(stats.WBProbe)), f2(l.CategoryFactor(stats.WBUpdate)),
					f2(l.CategoryFactor(stats.WBFill)), f2(l.BloatFactor()), f3(g))
			}
			t.write(w)
			return nil
		},
	})
}

// ablAgg aggregates the ablation workload subset under one spec.
func ablAgg(r *Runner, s spec) (aggregate, error) {
	futs := make([]Future, len(ablationWorkloads))
	for i, name := range ablationWorkloads {
		futs[i] = r.RateAsync(s, name)
	}
	var a aggregate
	for _, f := range futs {
		run, err := f.Wait()
		if err != nil {
			return a, err
		}
		a.add(run)
	}
	return a, nil
}

// fillPerRead reports Miss-Fill bytes per L4 read, the bandwidth BAB frees.
func fillPerRead(l *stats.L4) float64 {
	if l.Reads() == 0 {
		return 0
	}
	return float64(l.Bytes[stats.MissFill]) / float64(l.Reads())
}

func init() {
	register(Experiment{
		ID:       "abl-deadblock",
		Artifact: "Ablation",
		Title:    "BAB vs a dead-block-predictor bypass (Section 9.2's prior work)",
		About:    "Dead-block bypassing optimises hit rate but pays in-DRAM reuse-status updates; BAB optimises bandwidth directly",
		Run: func(p Params, w io.Writer, r *Runner) error {
			t := newTable("Policy", "Speedup-vs-Alloy", "HitRate", "Bloat", "StatusUpd")
			configs := []struct {
				name string
				s    spec
			}{
				{"fill-always", specAlloy},
				{"BAB", specBAB()},
				{"dead-block", func() spec {
					s := baseSpec(config.Alloy)
					s.bypass = config.DeadBlockBypass
					return s
				}()},
			}
			variants := make([]spec, len(configs))
			for i, c := range configs {
				variants[i] = c.s
			}
			r.PrefetchRate(variants, ablationWorkloads)
			for _, c := range configs {
				g, err := ablSpeedups(r, c.s, specAlloy)
				if err != nil {
					return err
				}
				a, err := ablAgg(r, c.s)
				if err != nil {
					return err
				}
				l := &a.l4
				t.row(c.name, f3(g), pct(l.HitRate()), f2(l.BloatFactor()),
					f2(l.CategoryFactor(stats.ReplUpdate)))
			}
			t.write(w)
			fmt.Fprintln(w, "\nExpected: dead-block bypassing buys little bandwidth and pays the")
			fmt.Fprintln(w, "status-update column; BAB frees fill bandwidth without it.")
			return nil
		},
	})

	register(Experiment{
		ID:       "abl-tagcache",
		Artifact: "Ablation",
		Title:    "Spatial (NTC) vs temporal (TTC) tag caching, and both combined (Section 9.4)",
		About:    "The paper notes the two exploit different locality and are orthogonal",
		Run: func(p Params, w io.Writer, r *Runner) error {
			t := newTable("TagCache", "Speedup-vs-Alloy", "ProbesSaved", "ParallelSquashed")
			configs := []struct {
				name     string
				ntc, ttc bool
			}{
				{"none", false, false},
				{"NTC", true, false},
				{"TTC", false, true},
				{"NTC+TTC", true, true},
			}
			variants := []spec{specAlloy}
			for _, c := range configs {
				s := baseSpec(config.Alloy)
				s.ntc, s.ttc = c.ntc, c.ttc
				variants = append(variants, s)
			}
			r.PrefetchRate(variants, ablationWorkloads)
			for _, c := range configs {
				s := baseSpec(config.Alloy)
				s.ntc, s.ttc = c.ntc, c.ttc
				g, err := ablSpeedups(r, s, specAlloy)
				if err != nil {
					return err
				}
				var saved, squashed uint64
				for _, name := range ablationWorkloads {
					run, err := r.Rate(s, name)
					if err != nil {
						return err
					}
					saved += run.L4.NTCProbesSaved
					squashed += run.L4.NTCParallelSqsh
				}
				t.row(c.name, f3(g), saved, squashed)
			}
			t.write(w)
			return nil
		},
	})
}

func init() {
	register(Experiment{
		ID:       "abl-dip",
		Artifact: "Ablation",
		Title:    "Insertion policy: LRU vs DIP over Loh-Hill and TIS (paper footnote 3)",
		About:    "DIP is a standalone FillPolicy since the granularity refactor, so the same dipFill composes over both the in-DRAM (LH) and in-SRAM (TIS) tag stores; speedups are vs each design's own LRU base",
		Run: func(p Params, w io.Writer, r *Runner) error {
			lhDIP := specLH
			lhDIP.lhDIP = true
			tisDIP := specTIS
			tisDIP.tisDIP = true
			r.PrefetchRate([]spec{specLH, lhDIP, specTIS, tisDIP}, ablationWorkloads)
			t := newTable("Policy", "Speedup-vs-LRU", "HitRate", "Bloat")
			for _, d := range []struct {
				name    string
				s, base spec
			}{
				{"LH-LRU", specLH, specLH},
				{"LH-DIP", lhDIP, specLH},
				{"TIS-LRU", specTIS, specTIS},
				{"TIS-DIP", tisDIP, specTIS},
			} {
				g, err := ablSpeedups(r, d.s, d.base)
				if err != nil {
					return err
				}
				a, err := ablAgg(r, d.s)
				if err != nil {
					return err
				}
				t.row(d.name, f3(g), pct(a.l4.HitRate()), f2(a.l4.BloatFactor()))
			}
			t.write(w)
			return nil
		},
	})

	register(Experiment{
		ID:       "abl-upd",
		Artifact: "Ablation",
		Title:    "Update-bypass of replacement state (Young & Qureshi-style sampling)",
		About:    "Dead-block bypassing pays an in-DRAM reuse-bit write per first reuse; sampling the updates to 1-in-64 sets keeps the bypass decision while shrinking the StatusUpd bandwidth category",
		Run: func(p Params, w io.Writer, r *Runner) error {
			t := newTable("Policy", "Speedup-vs-Alloy", "HitRate", "Bloat", "StatusUpd")
			configs := []struct {
				name   string
				bypass config.BypassPolicy
			}{
				{"fill-always", config.FillAlways},
				{"dead-block", config.DeadBlockBypass},
				{"update-bypass", config.UpdateBypass},
			}
			variants := make([]spec, len(configs))
			for i, c := range configs {
				s := baseSpec(config.Alloy)
				s.bypass = c.bypass
				variants[i] = s
			}
			r.PrefetchRate(variants, ablationWorkloads)
			for i, c := range configs {
				g, err := ablSpeedups(r, variants[i], specAlloy)
				if err != nil {
					return err
				}
				a, err := ablAgg(r, variants[i])
				if err != nil {
					return err
				}
				l := &a.l4
				t.row(c.name, f3(g), pct(l.HitRate()), f2(l.BloatFactor()),
					f2(l.CategoryFactor(stats.ReplUpdate)))
			}
			t.write(w)
			fmt.Fprintln(w, "\nExpected: update-bypass keeps dead-block's fill filtering but pays")
			fmt.Fprintln(w, "the reuse-status write only in sampled sets, shrinking StatusUpd ~64x.")
			return nil
		},
	})
}
