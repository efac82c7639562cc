package eval

import "sort"

// KeysAt returns, sorted, the keys of the entries valid at version v.
func (c *Cache) KeysAt(v uint64) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for k, h := range c.entries {
		if h.at(v) != nil {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
