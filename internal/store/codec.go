package store

import (
	"encoding/binary"
	"strconv"
	"sync"
)

// Int64Value encodes an integer as a Value (used for counters and token
// balances in the examples and experiments).
func Int64Value(v int64) Value {
	b := make(Value, 8)
	binary.BigEndian.PutUint64(b, uint64(v))
	return b
}

// AsInt64 decodes an integer Value; it returns 0 for nil or malformed
// values.
func AsInt64(v Value) int64 {
	if len(v) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(v))
}

// StringValue encodes a string as a Value.
func StringValue(s string) Value { return Value(s) }

// keyCache interns "prefix:n" strings per prefix in dense tables. Workload
// choosers draw millions of keys from small, fixed keyspaces, so building
// the string per draw (an Itoa plus a concat) dominates their allocation
// profile; the table pays each string once, when it is first drawn. An
// entry not yet built is "" (no key is empty).
var (
	keyCacheMu sync.RWMutex
	keyCache   = make(map[string][]string)
)

// keyCacheMax bounds the per-prefix table (bigger indices fall back to
// direct construction).
const keyCacheMax = 1 << 16

// ItoaKey builds "prefix:n" keys without fmt in hot paths. Keys with small
// n are interned on first use, so repeated draws from a bounded keyspace
// allocate nothing.
func ItoaKey(prefix string, n int) string {
	if n < 0 || n >= keyCacheMax {
		return prefix + ":" + strconv.Itoa(n)
	}
	keyCacheMu.RLock()
	tab := keyCache[prefix]
	if n < len(tab) && tab[n] != "" {
		s := tab[n]
		keyCacheMu.RUnlock()
		return s
	}
	keyCacheMu.RUnlock()

	keyCacheMu.Lock()
	defer keyCacheMu.Unlock()
	tab = keyCache[prefix]
	if n >= len(tab) {
		size := max(len(tab)*2, 1024)
		for size <= n {
			size *= 2
		}
		grown := make([]string, min(size, keyCacheMax))
		copy(grown, tab)
		keyCache[prefix] = grown
		tab = grown
	}
	if tab[n] == "" {
		tab[n] = prefix + ":" + strconv.Itoa(n)
	}
	return tab[n]
}
