package ppr

// entry is one node's estimate p_s(u) and residue r_s(u).
type entry struct{ p, r float64 }

// emptyKey marks a free slot. The decoder refuses negative keys, so no node
// id can collide with it.
const emptyKey = -1

// The table's load bounds, as fractions of its capacity: an insert that
// would take it past maxLoad rehashes to fill it to rehashLoad. Averaged
// over a state's life the load sits near 0.73, which holds a state in less
// memory than a power-of-two table at ≤ 3/4 (0.47–0.58 load) would.
const (
	maxLoadNum, maxLoadDen       = 7, 8
	rehashLoadNum, rehashLoadDen = 5, 8
	minCap                       = 4
)

// table stores a state's estimates and residues by node id in one flat
// open-addressed array pair: linear probing from a multiply-shift home
// slot, which needs no power-of-two capacity. Keys are never deleted — a
// node whose p and r return to 0 keeps its slot, which reads as 0 exactly
// as a missing key does — so there are no tombstones; a rehash drops the
// all-zero slots instead.
type table struct {
	keys []int32 // emptyKey where free
	vals []entry
	n    int // occupied slots
}

// newTable returns a table that holds n keys at the rehash load.
func newTable(n int) table {
	c := max(n*rehashLoadDen/rehashLoadNum+1, minCap)
	t := table{keys: make([]int32, c), vals: make([]entry, c)}
	for i := range t.keys {
		t.keys[i] = emptyKey
	}
	return t
}

// home is u's first probe position in a table of capacity c.
func home(u int32, c int) int {
	return int(uint64(uint32(u)*0x9E3779B1) * uint64(c) >> 32)
}

// slot returns the index holding u and true, or the free index where u
// would go (-1 in an empty table) and false.
func (t *table) slot(u int32) (int, bool) {
	c := len(t.keys)
	if c == 0 {
		return -1, false
	}
	for i := home(u, c); ; {
		switch t.keys[i] {
		case u:
			return i, true
		case emptyKey:
			return i, false
		}
		if i++; i == c {
			i = 0
		}
	}
}

// find returns the index holding u, or -1.
func (t *table) find(u int32) int {
	if i, ok := t.slot(u); ok {
		return i
	}
	return -1
}

// insert claims the free index i that slot(u) returned for u, rehashing
// first when the insert would pass the maximum load (always, for an empty
// table), and returns u's index.
func (t *table) insert(u int32, i int) int {
	if (t.n+1)*maxLoadDen > len(t.keys)*maxLoadNum {
		t.rehash(1)
		i, _ = t.slot(u)
	}
	t.keys[i] = u
	t.n++
	return i
}

// rehash rebuilds the table without its all-zero slots, sized so the live
// entries plus extra more fill it to the rehash load.
func (t *table) rehash(extra int) {
	live := 0
	for i, k := range t.keys {
		if k != emptyKey && t.vals[i] != (entry{}) {
			live++
		}
	}
	old := *t
	*t = newTable(live + extra)
	for i, k := range old.keys {
		if k != emptyKey && old.vals[i] != (entry{}) {
			j, _ := t.slot(k)
			t.keys[j], t.vals[j] = k, old.vals[i]
			t.n++
		}
	}
}
