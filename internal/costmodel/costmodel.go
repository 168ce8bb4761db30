// Package costmodel holds the page-based I/O + CPU cost formulas the
// optimizer charges physical operators with. The numbers follow the classic
// System R style: sequential and random page costs, per-tuple CPU cost, and
// an external merge-sort formula. Absolute values are arbitrary units; the
// paper's Figures 1 and 6 likewise report estimated cost units, so only the
// relative shape matters.
package costmodel

import "math"

// Params are the tunables of the cost model.
type Params struct {
	// PageSize is the number of tuples per disk page.
	PageSize int
	// BufferPages is the memory available to sorts and hash tables, in pages.
	BufferPages int
	// SeqPage is the cost of a sequential page read/write.
	SeqPage float64
	// RandPage is the cost of a random page access (index probes,
	// unclustered index scans).
	RandPage float64
	// CPUTuple is the CPU cost of processing one tuple.
	CPUTuple float64
	// CPUCompare is the CPU cost of one comparison or hash operation.
	CPUCompare float64
}

// Default returns the parameter set used throughout the experiments.
func Default() Params {
	return Params{
		PageSize:    100,
		BufferPages: 256,
		SeqPage:     1.0,
		RandPage:    4.0,
		CPUTuple:    0.01,
		CPUCompare:  0.001,
	}
}

// Pages converts a tuple count to a page count.
func (p Params) Pages(card float64) float64 {
	if card <= 0 {
		return 0
	}
	return math.Ceil(card / float64(p.PageSize))
}

// SeqScan is the cost of reading `produced` tuples of a heap file holding
// `total` tuples: sequential page I/O prorated by the consumed prefix, plus
// per-tuple CPU. Reading everything charges all pages.
func (p Params) SeqScan(total, produced float64) float64 {
	if total <= 0 {
		return 0
	}
	if produced > total {
		produced = total
	}
	return p.Pages(produced)*p.SeqPage + produced*p.CPUTuple
}

// IndexScan is the cost of retrieving `produced` tuples through an index in
// key order. A clustered index reads sequential pages; an unclustered index
// pays one random page access per tuple (the classic worst-case charge).
func (p Params) IndexScan(produced float64, clustered bool) float64 {
	if produced <= 0 {
		return 0
	}
	if clustered {
		return p.Pages(produced)*p.SeqPage + produced*p.CPUTuple
	}
	return produced*p.RandPage + produced*p.CPUTuple
}

// Sort is the cost of sorting card tuples: an in-memory sort charges CPU
// comparisons only; larger inputs pay the external merge-sort I/O
// 2·pages·passes where passes = 1 + ceil(log_{B-1}(runs)).
func (p Params) Sort(card float64) float64 {
	if card <= 1 {
		return 0
	}
	cpu := card * math.Log2(card) * p.CPUCompare
	pages := p.Pages(card)
	if pages <= float64(p.BufferPages) {
		return cpu
	}
	runs := math.Ceil(pages / float64(p.BufferPages))
	passes := 1 + math.Ceil(math.Log(runs)/math.Log(float64(p.BufferPages-1)))
	return 2*pages*passes*p.SeqPage + cpu
}

// IndexProbe is the cost of one index lookup returning `matches` tuples:
// a random page access for the search plus one per matching tuple fetch.
func (p Params) IndexProbe(matches float64) float64 {
	return p.RandPage + matches*(p.RandPage+p.CPUTuple)
}

// HashBuild is the cost of building a hash table over card tuples. Tables
// larger than the memory budget pay a spill penalty of one extra write+read
// per overflow page (Grace-style partitioning).
func (p Params) HashBuild(card float64) float64 {
	cpu := card * p.CPUCompare
	pages := p.Pages(card)
	if pages <= float64(p.BufferPages) {
		return cpu
	}
	return cpu + 2*(pages-float64(p.BufferPages))*p.SeqPage
}

// HashProbe is the CPU cost of probing with card tuples producing matches.
func (p Params) HashProbe(card, matches float64) float64 {
	return card*p.CPUCompare + matches*p.CPUTuple
}

// MergeCPU is the CPU cost of merging two sorted streams.
func (p Params) MergeCPU(cardL, cardR, matches float64) float64 {
	return (cardL+cardR)*p.CPUCompare + matches*p.CPUTuple
}

// NestedLoopCPU is the CPU cost of comparing outer tuples against a
// materialized inner of the given size.
func (p Params) NestedLoopCPU(outer, inner, matches float64) float64 {
	return outer*inner*p.CPUCompare + matches*p.CPUTuple
}

// HeapPush is the CPU cost of maintaining a priority queue of the given
// size across `ops` operations.
func (p Params) HeapPush(ops, size float64) float64 {
	if size < 2 {
		size = 2
	}
	return ops * math.Log2(size) * p.CPUCompare
}

// AnyKBuild is the per-input cost of the any-k bottom-up phase over n tuples
// spread across buckets of ~g tuples: hash partitioning (one hash op per
// tuple), the per-bucket suffix sort, and the tuple handling itself. The sort
// is charged at the bucket granularity — n·log2(g) total — which is what
// makes the build cheaper than sorting the whole input when buckets are
// small.
func (p Params) AnyKBuild(n, g float64) float64 {
	if n <= 0 {
		return 0
	}
	g = math.Max(g, 2)
	return n*p.CPUCompare + n*math.Log2(g)*p.CPUCompare + n*p.CPUTuple
}

// AnyKDelay is the enumeration cost of producing k results from an m-way
// any-k path: each pop re-walks the m-level path and pushes up to m
// successors onto a queue that holds O(k·m) pending solutions — the
// operator's delay bound, independent of the join's output cardinality.
func (p Params) AnyKDelay(k, m float64) float64 {
	if k <= 0 || m <= 0 {
		return 0
	}
	ops := k * m
	return p.HeapPush(ops, math.Max(ops, 2)) + ops*p.CPUTuple
}
