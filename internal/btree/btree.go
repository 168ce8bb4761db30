// Package btree implements an in-memory B+tree keyed by relation.Value,
// mapping each key to the row ids (heap positions) that carry it. It backs
// the engine's index access paths: ordered score scans for rank-join inputs
// and point lookups for index nested-loops joins.
package btree

import (
	"fmt"

	"rankopt/internal/relation"
)

// degree is the maximum number of keys per node. Chosen small enough to
// exercise splits in tests yet realistic for an in-memory tree.
const degree = 64

// Tree is a B+tree from Value keys to row-id lists. Duplicate keys are
// supported: all row ids for equal keys live in one leaf entry.
type Tree struct {
	root node
	size int // number of (key,rid) pairs
}

type node interface {
	// insert adds rid under key, returning a new right sibling and its
	// separator key if the node split.
	insert(key relation.Value, rid int) (sep relation.Value, right node, split bool)
	// firstLeaf / lastLeaf return the extreme leaves under this node.
	firstLeaf() *leaf
	lastLeaf() *leaf
	// seek returns the leaf that may contain key and the entry index of the
	// first entry with entry.key >= key (possibly == len(entries), meaning
	// continue in the next leaf).
	seek(key relation.Value) (*leaf, int)
}

type leaf struct {
	entries    []entry
	next, prev *leaf
}

type entry struct {
	key  relation.Value
	rids []int
}

type inner struct {
	// keys[i] separates children[i] (keys < keys[i]) from children[i+1]
	// (keys >= keys[i]).
	keys     []relation.Value
	children []node
}

// New creates an empty tree.
func New() *Tree { return &Tree{root: &leaf{}} }

// Len returns the number of (key, rid) pairs stored.
func (t *Tree) Len() int { return t.size }

// Insert adds a (key, rid) pair. NULL keys are rejected: SQL indexes do not
// index NULLs in this engine.
func (t *Tree) Insert(key relation.Value, rid int) error {
	if key.IsNull() {
		return fmt.Errorf("btree: cannot index NULL key")
	}
	sep, right, split := t.root.insert(key, rid)
	if split {
		t.root = &inner{keys: []relation.Value{sep}, children: []node{t.root, right}}
	}
	t.size++
	return nil
}

// Lookup returns the row ids stored under key (nil if absent).
func (t *Tree) Lookup(key relation.Value) []int {
	l, i := t.root.seek(key)
	if l == nil || i >= len(l.entries) || !l.entries[i].key.Equal(key) {
		return nil
	}
	return l.entries[i].rids
}

// leaf methods

func (l *leaf) firstLeaf() *leaf { return l }
func (l *leaf) lastLeaf() *leaf  { return l }

func (l *leaf) seek(key relation.Value) (*leaf, int) {
	lo, hi := 0, len(l.entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.entries[mid].key.Compare(key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return l, lo
}

func (l *leaf) insert(key relation.Value, rid int) (relation.Value, node, bool) {
	_, i := l.seek(key)
	if i < len(l.entries) && l.entries[i].key.Equal(key) {
		l.entries[i].rids = append(l.entries[i].rids, rid)
		return relation.Value{}, nil, false
	}
	l.entries = append(l.entries, entry{})
	copy(l.entries[i+1:], l.entries[i:])
	l.entries[i] = entry{key: key, rids: []int{rid}}
	if len(l.entries) <= degree {
		return relation.Value{}, nil, false
	}
	// Split.
	mid := len(l.entries) / 2
	right := &leaf{entries: append([]entry(nil), l.entries[mid:]...)}
	l.entries = l.entries[:mid]
	right.next = l.next
	right.prev = l
	if l.next != nil {
		l.next.prev = right
	}
	l.next = right
	return right.entries[0].key, right, true
}

// inner methods

func (n *inner) firstLeaf() *leaf { return n.children[0].firstLeaf() }
func (n *inner) lastLeaf() *leaf  { return n.children[len(n.children)-1].lastLeaf() }

func (n *inner) childFor(key relation.Value) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if n.keys[mid].Compare(key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (n *inner) seek(key relation.Value) (*leaf, int) {
	return n.children[n.childFor(key)].seek(key)
}

func (n *inner) insert(key relation.Value, rid int) (relation.Value, node, bool) {
	ci := n.childFor(key)
	sep, right, split := n.children[ci].insert(key, rid)
	if !split {
		return relation.Value{}, nil, false
	}
	n.keys = append(n.keys, relation.Value{})
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sep
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.keys) <= degree {
		return relation.Value{}, nil, false
	}
	mid := len(n.keys) / 2
	sepUp := n.keys[mid]
	r := &inner{
		keys:     append([]relation.Value(nil), n.keys[mid+1:]...),
		children: append([]node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return sepUp, r, true
}

// Iterator walks (key, rid) pairs in ascending or descending key order.
// Within one key, rids are returned in insertion order.
type Iterator struct {
	leaf    *leaf
	entry   int
	ridIdx  int
	forward bool
	done    bool
}

// Ascend returns an iterator over all pairs in ascending key order.
func (t *Tree) Ascend() *Iterator {
	l := t.root.firstLeaf()
	it := &Iterator{leaf: l, forward: true}
	it.normalize()
	return it
}

// Descend returns an iterator over all pairs in descending key order.
func (t *Tree) Descend() *Iterator {
	l := t.root.lastLeaf()
	it := &Iterator{leaf: l, forward: false}
	if len(l.entries) == 0 {
		it.done = true
		return it
	}
	it.entry = len(l.entries) - 1
	it.ridIdx = len(l.entries[it.entry].rids) - 1
	return it
}

// AscendFrom returns an ascending iterator positioned at the first key
// >= key.
func (t *Tree) AscendFrom(key relation.Value) *Iterator {
	l, i := t.root.seek(key)
	it := &Iterator{leaf: l, entry: i, forward: true}
	it.normalize()
	return it
}

// normalize advances past exhausted leaves (forward direction).
func (it *Iterator) normalize() {
	for it.leaf != nil && it.entry >= len(it.leaf.entries) {
		it.leaf = it.leaf.next
		it.entry = 0
	}
	if it.leaf == nil {
		it.done = true
	}
}

// Next returns the next (key, rid) pair. ok is false when exhausted.
func (it *Iterator) Next() (key relation.Value, rid int, ok bool) {
	if it.done {
		return relation.Value{}, 0, false
	}
	e := it.leaf.entries[it.entry]
	key, rid = e.key, e.rids[it.ridIdx]
	if it.forward {
		it.ridIdx++
		if it.ridIdx >= len(e.rids) {
			it.ridIdx = 0
			it.entry++
			it.normalize()
		}
	} else {
		it.ridIdx--
		if it.ridIdx < 0 {
			it.entry--
			for it.entry < 0 {
				it.leaf = it.leaf.prev
				if it.leaf == nil {
					it.done = true
					return key, rid, true
				}
				it.entry = len(it.leaf.entries) - 1
			}
			it.ridIdx = len(it.leaf.entries[it.entry].rids) - 1
		}
	}
	return key, rid, true
}

// Range calls fn for each pair with lo <= key <= hi in ascending order.
// fn returning false stops the scan.
func (t *Tree) Range(lo, hi relation.Value, fn func(key relation.Value, rid int) bool) {
	it := t.AscendFrom(lo)
	for {
		k, rid, ok := it.Next()
		if !ok || k.Compare(hi) > 0 {
			return
		}
		if !fn(k, rid) {
			return
		}
	}
}
