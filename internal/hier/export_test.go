package hier

import (
	"bear/internal/config"
	"bear/internal/dramcache"
	"bear/internal/event"
	"bear/internal/trace"
)

// NewSimHooks is NewSim with the dramcache upcalls taken from hooks.
func NewSimHooks(cfg config.System, wl trace.Workload, warm, meas uint64,
	hooks func(*Hierarchy) dramcache.Hooks) (*Sim, error) {
	return newSim(cfg, wl, warm, meas, &event.Queue{}, hooks)
}

// AllHooks wires every upcall whatever the configuration: the eviction
// notice reaches the on-chip levels even without DCP.
func (h *Hierarchy) AllHooks() dramcache.Hooks {
	return dramcache.Hooks{OnEvict: h.onL4Evict, OnBackInvalidate: h.onBackInvalidate}
}
