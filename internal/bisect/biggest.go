package bisect

import (
	"container/heap"
	"sort"
)

// Biggest is the BisectBiggest algorithm (paper §2.5): a Uniform Cost
// Search over the bisection tree that finds the k largest individual
// contributors and can exit early. Sets are expanded in decreasing order of
// their Test value; when the largest remaining set tests below the k-th
// found singleton's value, nothing better can remain and the search stops.
//
// Unlike All it performs no dynamic assumption verification — that is the
// trade the paper describes: "It is not able to dynamically verify
// assumptions, but can significantly improve performance if only the top
// few most contributing functions are desired."
//
// k <= 0 means "all": equivalent coverage to All but via UCS and still
// without the verification assertions.
func (s *Searcher) Biggest(items []string, k int) ([]Finding, error) {
	if len(items) == 0 {
		return nil, nil
	}
	v, err := s.Test(items)
	if err != nil {
		return nil, err
	}
	if v == 0 {
		return nil, nil
	}
	pq := &nodeHeap{{items: append([]string(nil), items...), val: v}}
	var found []Finding
	for pq.Len() > 0 {
		n := heap.Pop(pq).(node)
		// Early exit: every individual contributor inside n is bounded by
		// the set's own Test value under the Unique Error regime, so once
		// we hold k singletons at least this large we are done.
		if k > 0 && len(found) >= k && n.val <= found[k-1].Value {
			break
		}
		if len(n.items) == 1 {
			found = append(found, Finding{Item: n.items[0], Value: n.val})
			sort.SliceStable(found, func(i, j int) bool { return found[i].Value > found[j].Value })
			continue
		}
		d1, d2 := n.items[:len(n.items)/2], n.items[len(n.items)/2:]
		for _, d := range [][]string{d1, d2} {
			dv, err := s.Test(d)
			if err != nil {
				return found, err
			}
			if dv > 0 {
				heap.Push(pq, node{items: d, val: dv})
			}
		}
	}
	if k > 0 && len(found) > k {
		found = found[:k]
	}
	return found, nil
}

type node struct {
	items []string
	val   float64
}

// nodeHeap is a max-heap on Test value.
type nodeHeap []node

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].val > h[j].val }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(node)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := old[len(old)-1]
	*h = old[:len(old)-1]
	return n
}
