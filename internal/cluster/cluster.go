// Package cluster is the multilevel coarsening/uncoarsening subsystem
// that lets the ePlace engine scale to 10^5-10^6 cells: best-choice
// clustering merges movable standard cells into clusters under an area
// cap, producing a reduced netlist.Design the existing global placer
// runs on at a fraction of the cost, and the uncoarsening step seats
// member cells inside their cluster's footprint to warm-start the next
// finer level (the V-cycle of the mPL6/NTUplace3 comparators the paper
// measures against).
//
// Determinism contract: coarsening is a serial algorithm with a total
// order on every decision — the score heap breaks ties by cluster index
// pair, neighbor scores accumulate in fine-index order, and coarse
// cells/nets/pins are emitted in first-member order — so the same fine
// design always produces the bit-identical hierarchy, independent of
// worker counts (which only parallelize the per-level gradient kernels
// downstream).
//
// Memory stays O(cells + pins): scoring reads the fine level's compiled
// view, the transient state is a handful of flat arrays over the fine
// cells, and the coarse design's slices, its nets' and cells' pin lists
// included, are cut to size from counting passes before construction.
package cluster

import (
	"math"

	"eplace/internal/netlist"
)

// Options tunes one coarsening level.
type Options struct {
	// CapFactor caps a cluster's area at CapFactor times the average
	// movable standard-cell area (default 16). Larger caps coarsen more
	// aggressively but hide more detail from the coarse level.
	CapFactor float64
}

func (o *Options) defaults() {
	if o.CapFactor <= 0 {
		o.CapFactor = 16
	}
}

const (
	// reduction is the target fine/coarse ratio of movable standard
	// cells per level: coarsening stops once the cluster count drops
	// below movable/reduction.
	reduction = 4
	// maxNetDegree ignores nets with more pins than this when scoring
	// merges: clock-like global nets connect everything to everything
	// and would otherwise glue unrelated logic together.
	maxNetDegree = 16
	// minCells stops coarsening when a level would hold fewer movable
	// objects than this: below that, a level is pure overhead over
	// running the engine directly.
	minCells = 150
)

// Level is one coarsening step: the coarse design plus the map back to
// the finer design it was built from.
type Level struct {
	// D is the coarse design.
	D *netlist.Design
	// View is D's compiled view, built once with the level: the next
	// coarsening scores on it, and the flow lends it to the level's
	// stages.
	View *netlist.Compiled
	// Up maps every fine cell index to its coarse cell index. Movable
	// standard cells map to their cluster; macros, pads and fixed cells
	// map to their singleton image.
	Up []int
	// Fine is the design this level was coarsened from.
	Fine *netlist.Design
}

// pairEntry is one candidate merge in the score heap. Entries go stale
// when either endpoint merges (its version advances); stale entries are
// discarded lazily at pop time.
type pairEntry struct {
	score  float64
	a, b   int32
	va, vb uint32
}

// pairHeap orders candidates by score descending with a total-order
// index tie-break, so the pop sequence — and therefore the whole
// clustering — never depends on insertion order. It is a binary heap
// with container/heap's sift rules, typed so that no entry is boxed;
// Coarsen sizes it once for every candidate it can hold.
type pairHeap []pairEntry

func (h pairHeap) less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	if h[i].a != h[j].a {
		return h[i].a < h[j].a
	}
	return h[i].b < h[j].b
}

// push appends e and sifts it up, as heap.Push does.
func (h *pairHeap) push(e pairEntry) {
	*h = append(*h, e)
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

// pop removes and returns the best entry, as heap.Pop does: the last
// entry moves to the root and sifts down over the others.
func (h *pairHeap) pop() pairEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s.less(j2, j) {
			j = j2 // right child
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// coarsener holds the transient state of one best-choice run.
type coarsener struct {
	d   *netlist.Design
	cv  *netlist.Compiled // d's view: the topology scoring reads
	opt Options

	eligible  []bool    // movable std cells that may merge
	alive     []bool    // cluster representatives still mergeable
	version   []uint32  // bumped on every merge touching the cluster
	area      []float64 // current cluster area
	clusterOf []int32   // fine cell -> representative fine cell
	// A cluster's members form one list in merge order, threaded
	// through next (-1 ends it): it starts at the representative, which
	// is always the first member, and ends at tail[rep].
	next, tail []int32

	// netConn[e] = w_e / (|e| - 1), precomputed per fine net; zero for
	// nets outside the [2, maxNetDegree] scoring window.
	netConn []float64

	// Scratch for neighbor accumulation: conn is indexed by
	// representative, touched lists the representatives written this
	// round (reset between score evaluations without clearing conn).
	conn    []float64
	touched []int32

	cap    float64
	alive0 int // live cluster count
}

// scoreBest returns cluster a's best eligible merge partner and the
// best-choice score d(a,b) = conn(a,b) / (area_a + area_b), or
// (-1, 0) when no partner satisfies the area cap. Neighbor scores
// accumulate in member/pin order (the view's CellNet follows Cell.Pins
// and its PinCell each net's pin order); ties break toward the smaller
// representative index — both total orders, so the choice is
// reproducible bit for bit.
func (c *coarsener) scoreBest(a int32) (int32, float64) {
	cv := c.cv
	c.touched = c.touched[:0]
	for m := a; m >= 0; m = c.next[m] {
		for _, e := range cv.CellNet[cv.CellNetOff[m]:cv.CellNetOff[m+1]] {
			w := c.netConn[e]
			if w == 0 {
				continue
			}
			for _, qc := range cv.PinCell[cv.NetOff[e]:cv.NetOff[e+1]] {
				if qc < 0 {
					continue
				}
				b := c.clusterOf[qc]
				if b == a || !c.eligible[b] || !c.alive[b] {
					continue
				}
				if c.conn[b] == 0 {
					c.touched = append(c.touched, b)
				}
				c.conn[b] += w
			}
		}
	}
	best := int32(-1)
	bestScore := 0.0
	for _, b := range c.touched {
		cb := c.conn[b]
		c.conn[b] = 0
		if c.area[a]+c.area[b] > c.cap {
			continue
		}
		s := cb / (c.area[a] + c.area[b])
		if s > bestScore || (s == bestScore && best >= 0 && b < best) {
			best, bestScore = b, s
		}
	}
	return best, bestScore
}

// push enqueues cluster a's current best candidate, if any.
func (c *coarsener) push(h *pairHeap, a int32) {
	b, s := c.scoreBest(a)
	if b < 0 {
		return
	}
	h.push(pairEntry{score: s, a: a, b: b, va: c.version[a], vb: c.version[b]})
}

// merge folds cluster b into cluster a.
func (c *coarsener) merge(a, b int32) {
	for m := b; m >= 0; m = c.next[m] {
		c.clusterOf[m] = a
	}
	c.next[c.tail[a]] = b
	c.tail[a] = c.tail[b]
	c.area[a] += c.area[b]
	c.alive[b] = false
	c.version[a]++
	c.version[b]++
	c.alive0--
}

// Coarsen builds one coarse level above the design cv was compiled
// from, or returns nil when the design is too small or too loosely
// connected for a level to pay off (fewer movable std cells than
// 2*minCells, or best-choice achieved less than a 1.25x reduction).
// Scoring reads the view's topology and net weights, so the view must
// describe the design as it stands: freshly compiled, or synced since
// the last net-weight edit.
func Coarsen(cv *netlist.Compiled, opt Options) *Level {
	opt.defaults()
	fine := cv.Design()
	n := len(fine.Cells)

	c := &coarsener{
		d:         fine,
		cv:        cv,
		opt:       opt,
		eligible:  make([]bool, n),
		alive:     make([]bool, n),
		version:   make([]uint32, n),
		area:      make([]float64, n),
		clusterOf: make([]int32, n),
		next:      make([]int32, n),
		tail:      make([]int32, n),
		netConn:   make([]float64, len(cv.NetW)),
		conn:      make([]float64, n),
	}
	movableStd := 0
	var avgArea float64
	for i := range fine.Cells {
		cell := &fine.Cells[i]
		c.clusterOf[i] = int32(i)
		c.next[i] = -1
		c.tail[i] = int32(i)
		if cell.Fixed || cell.Kind != netlist.StdCell {
			continue
		}
		c.eligible[i] = true
		c.alive[i] = true
		c.area[i] = cell.Area()
		avgArea += c.area[i]
		movableStd++
	}
	if movableStd < 2*minCells {
		return nil
	}
	avgArea /= float64(movableStd)
	c.cap = opt.CapFactor * avgArea
	c.alive0 = movableStd

	for ni := range c.netConn {
		deg := int(cv.NetOff[ni+1] - cv.NetOff[ni])
		if deg < 2 || deg > maxNetDegree {
			continue
		}
		c.netConn[ni] = cv.NetW[ni] / float64(deg-1)
	}

	// Movable macros, pads and fixed cells are singletons by
	// construction; only std-cell clusters shrink the level. Stop at the
	// reduction target, floored by minCells.
	target := int(float64(movableStd) / reduction)
	if target < minCells {
		target = minCells
	}

	// Every live cluster holds at most one entry after the initial
	// pushes, and each pop pushes at most one, so the heap never
	// outgrows movableStd.
	h := make(pairHeap, 0, movableStd)
	for i := 0; i < n; i++ {
		if c.alive[int32(i)] {
			c.push(&h, int32(i))
		}
	}
	for c.alive0 > target && len(h) > 0 {
		e := h.pop()
		if !c.alive[e.a] {
			continue
		}
		if c.version[e.a] != e.va || !c.alive[e.b] || c.version[e.b] != e.vb {
			// Stale: one endpoint merged since this entry was scored.
			// Re-evaluate a's best partner against the current clusters.
			c.push(&h, e.a)
			continue
		}
		c.merge(e.a, e.b)
		c.push(&h, e.a)
	}

	reduced := c.alive0
	if float64(movableStd)/float64(reduced) < 1.25 {
		return nil
	}
	return c.build()
}

// build materializes the coarse design, its compiled view and the
// fine->coarse map. Counting passes over the fine view size every slice
// first, the nets' and cells' pin lists included, so Connect appends
// into reserved capacity and memory stays O(pins).
func (c *coarsener) build() *Level {
	fine, cv := c.d, c.cv
	n := len(fine.Cells)
	rh := fine.StdCellHeight()
	if rh <= 0 {
		rh = 1 // no movable std cells: unit rows
	}

	// Coarse cell indices in order of each cluster's first (lowest)
	// member, so the emitted design never depends on merge order.
	up := make([]int, n)
	for i := range up {
		up[i] = -1
	}
	numCoarse := 0
	for i := 0; i < n; i++ {
		if up[i] >= 0 {
			continue
		}
		rep := c.clusterOf[i]
		if !c.eligible[rep] {
			up[i] = numCoarse
			numCoarse++
			continue
		}
		ci := numCoarse
		numCoarse++
		for m := rep; m >= 0; m = c.next[m] {
			up[m] = ci
		}
	}

	// Count coarse nets and pins: a fine net survives when it spans at
	// least two distinct coarse endpoints (floating pins count as their
	// own endpoint). deg[ni] is surviving net ni's coarse pin count and
	// cellPins[ci] coarse cell ci's; seen marks an endpoint ni on its
	// first pin of net ni, then -2-ni once counted.
	seen := make([]int32, numCoarse)
	for i := range seen {
		seen[i] = -1
	}
	deg := make([]int32, len(fine.Nets))
	cellPins := make([]int32, numCoarse)
	numNets, numPins, numCellPins := 0, 0, 0
	for ni := range deg {
		pins := cv.PinCell[cv.NetOff[ni]:cv.NetOff[ni+1]]
		ends := 0
		floats := 0
		for _, cell := range pins {
			if cell < 0 {
				floats++
				continue
			}
			if seen[up[cell]] != int32(ni) {
				seen[up[cell]] = int32(ni)
				ends++
			}
		}
		if ends+floats < 2 {
			continue
		}
		deg[ni] = int32(ends + floats)
		numNets++
		numPins += ends + floats
		numCellPins += ends
		for _, cell := range pins {
			if cell >= 0 && seen[up[cell]] == int32(ni) {
				seen[up[cell]] = -2 - int32(ni)
				cellPins[up[cell]]++
			}
		}
	}

	// Coarse cells in index order: coarse indices were handed out in
	// order of each cluster's lowest member (up), so coarse cell ci is
	// emitted at the first fine cell that maps to ci. Clusters get an
	// area-conserving, roughly square footprint snapped to the fine row
	// height (legalization never runs at coarse levels; the shape only
	// feeds the density model). Singletons keep their exact geometry so
	// pin offsets stay valid.
	cd := netlist.New(fine.Name+"~", fine.Region)
	cd.TargetDensity = fine.TargetDensity
	cd.Reserve(numCoarse, numNets, numPins)
	multi := make([]bool, numCoarse)
	for i := range up {
		ci := up[i]
		if ci != len(cd.Cells) {
			continue
		}
		rep := c.clusterOf[i]
		if !c.eligible[rep] || c.next[rep] < 0 {
			src := &fine.Cells[i]
			cd.AddCell(netlist.Cell{
				W: src.W, H: src.H, X: src.X, Y: src.Y,
				Kind: src.Kind, Fixed: src.Fixed,
			})
			continue
		}
		multi[ci] = true
		var area, cx, cy float64
		for m := rep; m >= 0; m = c.next[m] {
			cell := &fine.Cells[m]
			a := cell.Area()
			area += a
			cx += a * cell.X
			cy += a * cell.Y
		}
		ch := rh * math.Max(1, math.Round(math.Sqrt(area)/rh))
		cd.AddCell(netlist.Cell{
			W: area / ch, H: ch, X: cx / area, Y: cy / area,
			Kind: netlist.StdCell,
		})
	}
	// Every pin list is cut from one counted array, empty with exactly
	// its final capacity.
	cellBuf := make([]int, numCellPins)
	o := 0
	for ci, k := range cellPins {
		if k > 0 {
			cd.Cells[ci].Pins = cellBuf[o : o : o+int(k)]
			o += int(k)
		}
	}

	// Coarse nets: first-occurrence pins per endpoint, offsets kept for
	// singletons (geometry identical) and zeroed for clusters (member
	// layout is not meaningful at the coarse level). Offsets and
	// directions are the fine pins' own, read from the structs.
	for i := range seen {
		seen[i] = -1
	}
	netBuf := make([]int, numPins)
	o = 0
	for ni := range fine.Nets {
		if deg[ni] == 0 {
			continue
		}
		net := &fine.Nets[ni]
		cni := cd.AddNet(net.Name, net.Weight)
		cd.Nets[cni].Pins = netBuf[o : o : o+int(deg[ni])]
		o += int(deg[ni])
		for _, pi := range net.Pins {
			p := &fine.Pins[pi]
			if p.Cell < 0 {
				pin := cd.Connect(-1, cni, p.Ox, p.Oy)
				cd.Pins[pin].Dir = p.Dir
				continue
			}
			ci := up[p.Cell]
			if seen[ci] != int32(ni) {
				seen[ci] = int32(ni)
				ox, oy := p.Ox, p.Oy
				if multi[ci] {
					ox, oy = 0, 0
				}
				pin := cd.Connect(ci, cni, ox, oy)
				cd.Pins[pin].Dir = p.Dir
			}
		}
	}

	return &Level{D: cd, View: cd.Compile(), Up: up, Fine: fine}
}

// Interpolate hands the coarse placement down: every fine movable cell
// is seated inside its cluster's current footprint. Cluster members are
// laid out on a deterministic ceil(sqrt(m))-column grid spanning the
// footprint (member order = fine index order); singletons land exactly
// on their image. Fixed cells are never touched.
func (l *Level) Interpolate() {
	fine, coarse := l.Fine, l.D

	// Member counts and CSR offsets per coarse cell, in fine order.
	counts := make([]int32, len(coarse.Cells))
	for i := range fine.Cells {
		if !fine.Cells[i].Fixed {
			counts[l.Up[i]]++
		}
	}
	rank := make([]int32, len(coarse.Cells)) // members seated so far
	for i := range fine.Cells {
		fc := &fine.Cells[i]
		if fc.Fixed {
			continue
		}
		ci := l.Up[i]
		cc := &coarse.Cells[ci]
		m := counts[ci]
		if m == 1 {
			fc.X, fc.Y = cc.X, cc.Y
			continue
		}
		cols := int32(math.Ceil(math.Sqrt(float64(m))))
		rows := (m + cols - 1) / cols
		k := rank[ci]
		rank[ci]++
		col, row := k%cols, k/cols
		fc.X = cc.X - cc.W/2 + (float64(col)+0.5)*cc.W/float64(cols)
		fc.Y = cc.Y - cc.H/2 + (float64(row)+0.5)*cc.H/float64(rows)
	}
}
