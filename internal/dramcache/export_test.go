package dramcache

// TADSlab returns the TAD slot slab and slot width of an Alloy-family
// cache.
func TADSlab(c Cache) (slots []byte, width uint64) {
	t := c.(*Controller).tags.(*tadTags)
	return t.slots, t.width
}

// LeakTxn takes one transaction from c's freelist and never returns it.
func LeakTxn(c Cache) { c.(*Controller).getTxn() }
