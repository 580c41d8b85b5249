package dram

// LeakRequest takes one request from m's freelist and never returns it.
func LeakRequest(m *Memory) { m.get() }
