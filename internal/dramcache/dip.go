package dramcache

import "bear/internal/core"

// dipFill is the Dynamic Insertion Policy lifted into the FillPolicy layer:
// the set-dueling monitor observes misses through RecordAccess and the
// duel's current winner answers InsertMRU, which the engine hands to
// TagStore.Fill as the insertion position. Because the mechanism is pure
// policy — no tag-store hooks — DIP composes with any associative store:
// config.UseDIP puts this one implementation over the Loh-Hill
// tags-in-DRAM rows or the Tags-In-SRAM design (the abl-dip ablation
// sweeps both).
type dipFill struct{ d *core.DIP }

// newDIPFill builds a DIP policy with the standard 1024-access duel window.
func newDIPFill() dipFill { return dipFill{core.NewDIP(1024)} }

func (f dipFill) RecordAccess(set, _ uint64, miss bool) {
	if miss {
		f.d.RecordMiss(set)
	}
}
func (f dipFill) ShouldBypass(uint64, uint64, uint64) bool { return false }
func (f dipFill) OnHit(uint64) bool                        { return false }
func (f dipFill) OnFill(uint64, uint64, uint64, bool)      {}

// InsertMRU consults the duel: leader sets vote, follower sets obey, and
// the bimodal side occasionally promotes (core.DIP owns that epsilon).
func (f dipFill) InsertMRU(set uint64) bool { return f.d.InsertAtMRU(set) }
