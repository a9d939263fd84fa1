package tm

// Retries reports how many attempts of the last atomic block aborted,
// under any backend and in any phase — restarts included — which is the
// number of abort events the block sent to the flight recorder (0 for a
// first-try commit).
func (c *Ctx) Retries() int { return c.aborts }
