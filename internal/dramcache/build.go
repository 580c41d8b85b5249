package dramcache

import (
	"fmt"

	"bear/internal/config"
	"bear/internal/core"
	"bear/internal/dram"
	"bear/internal/event"
)

// Bundle is a fully wired memory system below the LLC: the L4 design, the
// stacked-DRAM and main-memory timing models, and handles to the BEAR
// policy components for diagnostics.
type Bundle struct {
	Cache   Cache
	L4DRAM  *dram.Memory // nil when Design == NoL4
	MemDRAM *dram.Memory
	Mem     *MainMemory

	BAB  *core.BAB
	NTC  *core.NTC
	MAPI *MAPI
}

// Build constructs the memory system described by cfg on the event queue q,
// reporting L4 evictions through hooks.
func Build(cfg config.System, q *event.Queue, hooks Hooks) (*Bundle, error) {
	if cfg.UseDIP && cfg.Design != config.LohHill && cfg.Design != config.TIS {
		return nil, fmt.Errorf("dramcache: DIP insertion applies to LH and TIS, not %v", cfg.Design)
	}
	b := &Bundle{}
	b.MemDRAM = dram.New("mem", cfg.Mem, q)
	b.Mem = NewMainMemory(b.MemDRAM)

	if cfg.Design == config.NoL4 {
		b.Cache = NewNoL4(b.Mem)
		return b, nil
	}
	b.L4DRAM = dram.New("l4", cfg.L4, q)
	// withDIP composes DIP insertion, a pure FillPolicy, over the LH or
	// TIS tag store when cfg.UseDIP asks for it.
	withDIP := func(c *Controller) *Controller {
		if cfg.UseDIP {
			c.fill = newDIPFill()
		}
		return c
	}

	// TIS, SC, Banshee and TicToc size their data store in lines; SC,
	// Banshee and TicToc group it into config.BlockBytes blocks.
	lines := uint64(cfg.CacheBytes) / config.LineBytes
	const blockLines = config.BlockBytes / config.LineBytes

	switch cfg.Design {
	case config.Alloy, config.BEAR, config.BWOpt, config.InclAlloy:
		opts := AlloyOpts{
			Ideal:      cfg.Design == config.BWOpt,
			Inclusive:  cfg.Design == config.InclAlloy,
			Pred:       cfg.Pred,
			WBAllocate: cfg.WBAllocate,
		}
		if !opts.Ideal && cfg.Pred == config.PredMAPI {
			opts.Predictor = NewMAPI(cfg.Core.Count, 256)
			b.MAPI = opts.Predictor
		}
		switch cfg.Bypass {
		case config.ProbBypass:
			b.BAB = core.NewBAB(cfg.BypassProb, cfg.DuelSatLimit, cfg.Seed^0xbab)
			b.BAB.Naive = true
			opts.BAB = b.BAB
		case config.BandwidthAware:
			b.BAB = core.NewBAB(cfg.BypassProb, cfg.DuelSatLimit, cfg.Seed^0xbab)
			opts.BAB = b.BAB
		case config.DeadBlockBypass:
			opts.DBP = core.NewDeadBlock(4096, 2)
		case config.UpdateBypass:
			opts.DBP = core.NewDeadBlock(4096, 2)
			opts.UpdateBypass = true
		}
		if cfg.UseNTC {
			b.NTC = core.NewNTC(cfg.L4.Channels*cfg.L4.Banks, cfg.NTCEntriesPerBank)
			opts.NTC = b.NTC
		}
		if cfg.UseTTC {
			opts.TTC = core.NewNTC(cfg.L4.Channels*cfg.L4.Banks, cfg.NTCEntriesPerBank)
		}
		b.Cache = NewAlloy(cfg.Design.String(), cfg.AlloySets(), b.L4DRAM, b.Mem, hooks, opts)

	case config.LohHill:
		b.Cache = withDIP(NewLohHill("LH", cfg.LHSets(), 29, b.L4DRAM, b.Mem, hooks,
			LHOpts{MissMapLatency: cfg.L3.Latency}))
	case config.MostlyClean:
		b.Cache = NewLohHill("MC", cfg.LHSets(), 29, b.L4DRAM, b.Mem, hooks,
			LHOpts{PerfectPredictor: true})

	case config.TIS:
		b.Cache = withDIP(NewTIS("TIS", lines, cfg.AssocWays, b.L4DRAM, b.Mem, hooks))
	case config.Sector:
		b.Cache = NewSector("SC", lines, blockLines, cfg.AssocWays, b.L4DRAM, b.Mem, hooks)
	case config.Banshee:
		b.Cache = NewBanshee("Banshee", lines, blockLines, cfg.AssocWays, b.L4DRAM, b.Mem, hooks)
	case config.TicToc:
		b.Cache = NewTicToc("TicToc", lines, blockLines, cfg.AssocWays, b.L4DRAM, b.Mem, hooks)

	default:
		return nil, fmt.Errorf("dramcache: unknown design %v", cfg.Design)
	}
	return b, nil
}
