package cpu

// LeakToken takes one load-completion token from c's freelist and never
// returns it.
func LeakToken(c *Core) {
	c.nextToken()
	c.takeToken(0)
}
