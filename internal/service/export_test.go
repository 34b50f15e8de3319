package service

// FlightRefsFor reads the endpoint's flight-refcount gauge; the flight
// tests use it to sequence waiters deterministically and to prove refs
// drain to zero.
func (m *Metrics) FlightRefsFor(endpoint string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.flightRefs[endpoint]
}

// flightRefs reports how many live waiters (leader included) the key's
// in-flight computation has; the cache tests use it to make races
// deterministic.
func (c *Cache) flightRefs(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		return f.refs
	}
	return 0
}
