package exec

import (
	"math"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// keyTable is the one join-key table of the executor: it maps a key Value to
// a dense group id (0, 1, 2, … in order of first appearance), and every
// operator that hashes on a join key — HashJoin's build side, each HRJN
// input, each AnyK level — keeps its payload in flat storage indexed by that
// id. The table itself holds no tuples.
//
// Numeric keys, the common case, live in an open-addressing array of
// normalized float64 BIT PATTERNS: join keys compare like Value.HashKey,
// which widens every numeric to float64 (Int(3) ≡ Float(3)), -0 collapses
// into +0 and NaNs canonicalize to nanKeyBits before insert, so bit equality
// is exactly float-key equality for every reachable key and the probe loop
// runs on integer compares — a multiply, a shift and (almost always) one
// 8-byte load, cheap enough to inline into the vectorized hash-join probe.
// One more NaN payload, emptyKeyBits, marks free slots; no normalized key
// aliases it. Strings and bools go to a generic map created on first use;
// they can never equal a numeric key, so the two halves need no migration.
//
// Semantics match Go's map over HashKey values exactly: +0 and -0 are one
// key, and NaN keys are unreachable — find drops a NaN probe before the walk
// (NaN == NaN is false in a map too). All NaN keys interned share one group
// that nothing can ever look up, where a built-in map would give each its own
// unreachable slot; no lookup can observe the difference.
//
// The load a table grows at is chosen at reset. The probe-heavy tables
// (HashJoin's build, HRJN's inputs, NRJN's inner) grow at ¼: unsuccessful
// probes, the common case on a selective join, then walk ~1.2 slots even with
// linear-probing clustering, and the halved-footprint ½-load variant measured
// slower on a streaming probe despite its better cache residency
// (BenchmarkHRJNPull, ~4 % slower at ½). AnyK's levels grow at ½: each is
// probed once per entry of the level before it, mostly successfully, and
// sized for every row of its input; on deep-dig the column-image build held
// 7–9 % more resident memory than its parent with ¼-load levels and 1–3 %
// with ½, at the same qps. Ids are stable across grows.
const (
	emptyKeyBits = 0x7FF8000000000001 // reserved NaN payload: empty slot
	nanKeyBits   = 0x7FF8000000000000 // canonical NaN stored for NaN keys
)

// The two loads, as the shift that turns the occupied count into the slot
// count it needs: a table grows once used<<load reaches its capacity.
const (
	probeLoad = 2 // ¼
	levelLoad = 1 // ½
)

type keyTable struct {
	// keys holds normalized key bit patterns, emptyKeyBits when free; ids is
	// the group id of the key in the same slot.
	keys []uint64
	ids  []int32
	// shift turns a mixed hash into a slot index by keeping its TOP bits
	// (64 - log2(capacity)). Multiplicative hashing pushes entropy upward,
	// and float64 encodings of small integers differ only in high mantissa
	// bits — indexing by the product's low bits would collapse such key sets
	// into a handful of clusters.
	shift uint
	// load is the table's grow threshold (probeLoad or levelLoad).
	load uint
	// used counts occupied slots (distinct numeric keys), for the grow
	// threshold; groups counts the ids handed out, numeric and generic.
	used   int
	groups int32
	// lo and hi bound the reachable numeric keys — the min-max join filter. A
	// probe key outside [lo, hi] cannot match, so probe loops skip its hash
	// and table walk on two float compares; on selective joins (small build
	// key domain, wide probe domain) that prunes almost every probe. NaN keys
	// never widen the bounds: they are unreachable. Empty table: lo=+Inf,
	// hi=-Inf rejects every probe.
	lo, hi float64
	// other maps the non-numeric keys (strings, bools) by HashKey; nil until
	// one is interned.
	other map[any]int32
}

// maxInitialSlots caps the presized capacity. The hint counts ROWS, an upper
// bound on distinct keys that a duplicate-heavy key overshoots by orders of
// magnitude — presizing to it directly would allocate and clear megabytes of
// table for a handful of groups. Past the cap the table doubles as keys
// actually arrive; each grow reinserts only the distinct keys seen.
const maxInitialSlots = 1 << 16

// maxReusedSlots caps the spare capacity a reset keeps. Every reset clears
// the slots it keeps, so a reused table larger than its next user needs costs
// that user a clear of at most this many slots — about what allocating and
// clearing a fresh 256-slot table costs — and a pool drops larger arrays
// instead of holding them (hashInput.release).
const maxReusedSlots = 1 << 10

// reset empties the table and sizes it for about hint distinct keys at the
// given load. A table whose arrays are already larger — one reused by a
// reopened operator or handed on by a pool — keeps them at their full
// capacity up to maxReusedSlots, so a key count its last user reached needs
// no grow. Ids still follow first appearance, whatever the slot count. A
// table must be reset before use.
func (kt *keyTable) reset(hint int, load uint) {
	capacity, p := 16, uint(4)
	spare := min(cap(kt.keys), maxReusedSlots)
	for capacity < maxInitialSlots && (capacity>>load < hint || capacity<<1 <= spare) {
		capacity <<= 1
		p++
	}
	if cap(kt.keys) >= capacity {
		kt.keys, kt.ids = kt.keys[:capacity], kt.ids[:capacity]
	} else {
		kt.keys, kt.ids = make([]uint64, capacity), make([]int32, capacity)
	}
	for i := range kt.keys {
		kt.keys[i] = emptyKeyBits
	}
	kt.shift, kt.load = 64-p, load
	kt.used, kt.groups = 0, 0
	kt.lo, kt.hi = math.Inf(1), math.Inf(-1)
	kt.other = nil
}

// normBits returns the canonical bit pattern of key f: -0 collapses into
// +0 and every NaN becomes nanKeyBits, so equal map keys — and only equal
// map keys, NaN excepted — share a bit pattern.
func normBits(f float64) uint64 {
	if f == 0 {
		return 0
	}
	if f != f {
		return nanKeyBits
	}
	return math.Float64bits(f)
}

// hashBits mixes a normalized key pattern; Fibonacci multiplication after
// a fold-down spreads the regular patterns of widened integers well.
// Callers index with the product's high bits (>> shift), never its low
// bits.
func hashBits(b uint64) uint64 {
	b ^= b >> 33
	return b * 0x9E3779B97F4A7C15
}

// intern returns the group id of the non-NULL key k, assigning the next
// dense id when the key is new — the caller sees that as an id equal to the
// number of groups it already holds.
func (kt *keyTable) intern(k relation.Value) int32 {
	f, ok := k.Float64()
	if !ok {
		return kt.otherID(k, true)
	}
	return kt.internFloat(f)
}

// internFloat is intern's numeric entry point, for a key already widened to
// float64 (a Value's numeric payload or a column image entry).
func (kt *keyTable) internFloat(f float64) int32 {
	// NaN compares false both ways, so NaN keys leave the filter untouched.
	if f < kt.lo {
		kt.lo = f
	}
	if f > kt.hi {
		kt.hi = f
	}
	b := normBits(f)
	if kt.used<<kt.load >= len(kt.keys) {
		// At the load threshold: double first, so the walk below always ends
		// on a claimable slot.
		kt.grow()
	}
	mask := uint64(len(kt.keys)) - 1
	for i := hashBits(b) >> kt.shift; ; i++ {
		switch kt.keys[i&mask] {
		case b:
			return kt.ids[i&mask]
		case emptyKeyBits:
			kt.keys[i&mask], kt.ids[i&mask] = b, kt.groups
			kt.used++
			kt.groups++
			return kt.groups - 1
		}
	}
}

// grow doubles the table and re-places every key with its id.
func (kt *keyTable) grow() {
	oldKeys, oldIDs := kt.keys, kt.ids
	capacity := len(oldKeys) * 2
	kt.keys, kt.ids = make([]uint64, capacity), make([]int32, capacity)
	for i := range kt.keys {
		kt.keys[i] = emptyKeyBits
	}
	kt.shift--
	mask := uint64(capacity) - 1
	for i, b := range oldKeys {
		if b == emptyKeyBits {
			continue
		}
		j := hashBits(b) >> kt.shift
		for kt.keys[j&mask] != emptyKeyBits {
			// Distinct old slots hold distinct keys, so this walk only
			// resolves placement, not equality.
			j++
		}
		kt.keys[j&mask], kt.ids[j&mask] = b, oldIDs[i]
	}
}

// find returns the group id under key k, -1 when k is absent, NULL or NaN
// (NULL never joins and NaN keys never match, as in a built-in map). The
// min-max filter settles numeric keys outside the reachable range —
// including every NaN — before hashing.
func (kt *keyTable) find(k relation.Value) int32 {
	f, ok := k.Float64()
	if !ok {
		if kt.other == nil || k.IsNull() {
			return -1
		}
		return kt.otherID(k, false)
	}
	return kt.findFloat(f)
}

// findFloat is find's numeric entry point, for a key already widened to
// float64.
func (kt *keyTable) findFloat(f float64) int32 {
	// Negated so NaN (which compares false both ways) is rejected too.
	if !(f >= kt.lo && f <= kt.hi) {
		return -1
	}
	b := normBits(f)
	mask := uint64(len(kt.keys)) - 1
	for i := hashBits(b) >> kt.shift; ; i++ {
		switch kt.keys[i&mask] {
		case b:
			return kt.ids[i&mask]
		case emptyKeyBits:
			return -1
		}
	}
}

// otherID is the generic half: the id of a string or bool key, interned when
// add is set, else -1 when absent.
func (kt *keyTable) otherID(k relation.Value, add bool) int32 {
	hk := k.HashKey()
	if id, ok := kt.other[hk]; ok {
		return id
	}
	if !add {
		return -1
	}
	if kt.other == nil {
		kt.other = make(map[any]int32)
	}
	kt.other[hk] = kt.groups
	kt.groups++
	return kt.groups - 1
}

// keyEval evaluates a join key: by direct column load when the key is a bare
// column, else through the bound expression.
type keyEval struct {
	ev   expr.Eval
	col  int
	bare bool
}

// bindKey binds a join-key expression against its input's schema.
func bindKey(key expr.Expr, sch *relation.Schema) (k keyEval, err error) {
	if k.ev, err = key.Bind(sch); err != nil {
		return k, err
	}
	k.col, k.bare = expr.ColIndex(key, sch)
	return k, nil
}

// of returns the key of tuple t.
func (k *keyEval) of(t relation.Tuple) (relation.Value, error) {
	if k.bare && k.col < len(t) {
		return t[k.col], nil
	}
	return k.ev(t)
}
