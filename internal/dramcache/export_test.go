package dramcache

// TADSlab returns the TAD slot slab, the slot width and the number of
// tag codes (the sentinel included) of an Alloy-family cache.
func TADSlab(c Cache) (slots []byte, width uint64, codes int) {
	t := c.(*Controller).tags.(*tadTags)
	return t.slots, t.width, len(t.tags)
}

// LeakTxn takes one transaction from c's freelist and never returns it.
func LeakTxn(c Cache) { c.(*Controller).getTxn() }
