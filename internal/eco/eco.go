// Package eco implements incremental (ECO — engineering change order)
// re-placement support: edit scripts that mutate a placed design
// in a controlled way (add/remove cells, reweight nets, block regions)
// and record the cells and nets each edit changed, and a freeze planner
// that decides from that record which cells must be re-placed and which
// converged far-away regions can be reused verbatim.
//
// The flow layer (core.PlaceECO) consumes the Plan: every stage holds
// the frozen cells, so the density model rasterizes them as immovable
// charge, the wirelength model treats them as terminals, and
// legalization/detail placement route around them as obstacles. A short
// warm-started Nesterov placement runs only over the cells a blockage
// evicted (Plan.Evicted), and legalization and detail placement over
// the active set. Everything here is deterministic: applying the same
// script to the same design always yields the same plan, at any worker
// count.
package eco

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"eplace/internal/geom"
	"eplace/internal/netlist"
)

// Script is one edit script, the JSON payload of `eplace -eco` and of
// the server's ECO job kind. Edits are applied in field order: removals
// first, then additions, reweights, and region blocks.
type Script struct {
	// AddCells inserts new movable standard cells.
	AddCells []AddCell `json:"add_cells,omitempty"`
	// RemoveCells deletes cells by name: their pins are detached from
	// every net and the cell degenerates to a zero-area fixed tombstone
	// (indices of the remaining cells never shift, which is what lets
	// the previous placement's positions carry over untouched).
	RemoveCells []string `json:"remove_cells,omitempty"`
	// ReweightNets overrides net weights (a timing/congestion pass
	// feeding back into placement).
	ReweightNets []Reweight `json:"reweight_nets,omitempty"`
	// BlockRegions inserts fixed zero-connectivity blockages; movable
	// cells inside are evicted by the re-placement.
	BlockRegions []Block `json:"block_regions,omitempty"`
}

// AddCell describes one inserted standard cell.
type AddCell struct {
	Name string  `json:"name"`
	W    float64 `json:"w"`
	H    float64 `json:"h"`
	// Nets connects the new cell (pin at the cell center) to existing
	// nets by name; NetIDs addresses nets by index, for designs whose
	// nets are unnamed (e.g. synthetic circuits).
	Nets   []string `json:"nets,omitempty"`
	NetIDs []int    `json:"net_ids,omitempty"`
	// X, Y optionally seed the new cell's position. When both are zero
	// the cell starts at the centroid of its connected nets' existing
	// pins (or the region center for unconnected cells).
	X float64 `json:"x,omitempty"`
	Y float64 `json:"y,omitempty"`
}

// Reweight sets one net's weight. Net addresses by name; when empty,
// NetID addresses by index.
type Reweight struct {
	Net    string  `json:"net,omitempty"`
	NetID  int     `json:"net_id,omitempty"`
	Weight float64 `json:"weight"`
}

// Block is one blocked rectangle in region coordinates.
type Block struct {
	Lx float64 `json:"lx"`
	Ly float64 `json:"ly"`
	Hx float64 `json:"hx"`
	Hy float64 `json:"hy"`
}

// rect converts the block to a geometry rectangle.
func (b Block) rect() geom.Rect { return geom.Rect{Lx: b.Lx, Ly: b.Ly, Hx: b.Hx, Hy: b.Hy} }

// LoadScript reads a Script from a JSON file, rejecting unknown fields
// so a typo'd edit cannot silently become a no-op.
func LoadScript(path string) (*Script, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := parseScript(data)
	if err != nil {
		return nil, fmt.Errorf("eco: decoding %s: %w", path, err)
	}
	return s, nil
}

// parseScript decodes one JSON edit script, rejecting unknown fields.
func parseScript(data []byte) (*Script, error) {
	var s Script
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Change records what Apply actually touched, in design indices.
type Change struct {
	// Added are the new cells' indices (appended at the end).
	Added []int
	// Removed are tombstoned cell indices.
	Removed []int
	// Reweighted are the nets whose effective weight changed.
	Reweighted []int
	// Blocked are the inserted blockage cells' indices.
	Blocked []int
	// Nets are the nets whose weight or pin list changed, ascending: the
	// reweighted nets, the nets a removed cell was detached from and the
	// nets an added cell joined.
	Nets []int
	// Cells are the cells the edit changed, ascending: the added,
	// removed and blocked cells plus every current member of Nets.
	Cells []int
}

// Apply mutates d according to the script and returns what changed.
// Edits are validated up front; a failed Apply may leave the design
// partially edited, so callers treating errors as recoverable should
// Apply onto a clone.
func Apply(d *netlist.Design, s *Script) (*Change, error) {
	if s == nil {
		return &Change{}, nil
	}
	ch := &Change{}
	// netHit marks the nets whose weight or pin list the script changes.
	netHit := make([]bool, len(d.Nets))

	// Name lookup for nets (names may be empty for synthetic designs).
	netByName := make(map[string]int)
	for ni := range d.Nets {
		if name := d.Nets[ni].Name; name != "" {
			netByName[name] = ni
		}
	}
	resolveNet := func(name string, id int) (int, error) {
		if name != "" {
			ni, ok := netByName[name]
			if !ok {
				return -1, fmt.Errorf("eco: no net named %q", name)
			}
			return ni, nil
		}
		if id < 0 || id >= len(d.Nets) {
			return -1, fmt.Errorf("eco: net index %d out of range [0,%d)", id, len(d.Nets))
		}
		return id, nil
	}

	// Removals: detach every pin, keep the slot as a zero-area fixed
	// tombstone so all other cell indices (and the previous placement's
	// position vectors) stay valid.
	for _, name := range s.RemoveCells {
		ci := d.CellByName(name)
		if ci < 0 {
			return nil, fmt.Errorf("eco: no cell named %q to remove", name)
		}
		c := &d.Cells[ci]
		if c.Fixed && c.W == 0 && c.H == 0 {
			return nil, fmt.Errorf("eco: cell %q was already removed", name)
		}
		if c.Fixed {
			return nil, fmt.Errorf("eco: cell %q is fixed; only movable cells can be removed", name)
		}
		for _, pi := range c.Pins {
			ni := d.Pins[pi].Net
			netHit[ni] = true
			pins := d.Nets[ni].Pins
			keep := pins[:0]
			for _, np := range pins {
				if np != pi {
					keep = append(keep, np)
				}
			}
			d.Nets[ni].Pins = keep
		}
		c.Pins = nil
		c.W, c.H = 0, 0
		c.Kind = netlist.Pad
		c.Fixed = true
		ch.Removed = append(ch.Removed, ci)
	}

	// Additions, appended after every existing cell. The cell and pin
	// slices grow once for all of them and the blocks, and so does the pin
	// list of every net they join and of every added cell, not per pin.
	// netsOf resolves an added cell's nets, in the order its pins join
	// them, into nets; a cell whose nets do not resolve fails below, in
	// script order, and is not counted.
	netsOf := func(a AddCell, nets []int) ([]int, error) {
		for _, name := range a.Nets {
			ni, err := resolveNet(name, -1)
			if err != nil {
				return nets, err
			}
			nets = append(nets, ni)
		}
		for _, id := range a.NetIDs {
			ni, err := resolveNet("", id)
			if err != nil {
				return nets, err
			}
			nets = append(nets, ni)
		}
		return nets, nil
	}
	addPins := 0
	for _, a := range s.AddCells {
		addPins += len(a.Nets) + len(a.NetIDs)
	}
	// joined lists the net of every added pin; sorted, each net's run is
	// the room its pin list needs.
	joined := make([]int, 0, addPins)
	for _, a := range s.AddCells {
		if nets, err := netsOf(a, joined); err == nil {
			joined = nets
		}
	}
	slices.Sort(joined)
	for i := 0; i < len(joined); {
		ni, k := joined[i], 1
		for i+k < len(joined) && joined[i+k] == ni {
			k++
		}
		if pins := d.Nets[ni].Pins; cap(pins)-len(pins) < k {
			d.Nets[ni].Pins = append(make([]int, 0, len(pins)+k), pins...)
		}
		i += k
	}
	d.Reserve(len(s.AddCells)+len(s.BlockRegions), 0, addPins)
	if len(s.AddCells) > 0 {
		ch.Added = make([]int, 0, len(s.AddCells))
	}
	for _, a := range s.AddCells {
		if a.Name == "" {
			return nil, fmt.Errorf("eco: added cell needs a name")
		}
		if d.CellByName(a.Name) >= 0 {
			return nil, fmt.Errorf("eco: cell %q already exists", a.Name)
		}
		if a.W <= 0 || a.H <= 0 {
			return nil, fmt.Errorf("eco: added cell %q needs positive size", a.Name)
		}
		ci := d.AddCell(netlist.Cell{Name: a.Name, W: a.W, H: a.H, Kind: netlist.StdCell})
		nets, err := netsOf(a, joined[:0])
		if err != nil {
			return nil, err
		}
		// Seed position: explicit, else the centroid of the connected
		// nets' existing pins, else the region center.
		x, y := a.X, a.Y
		if x == 0 && y == 0 {
			var sx, sy float64
			n := 0
			for _, ni := range nets {
				for _, pi := range d.Nets[ni].Pins {
					p := d.PinPos(pi)
					sx += p.X
					sy += p.Y
					n++
				}
			}
			if n > 0 {
				x, y = sx/float64(n), sy/float64(n)
			} else {
				c := d.Region.Center()
				x, y = c.X, c.Y
			}
		}
		p := geom.ClampPoint(geom.Point{X: x, Y: y}, a.W, a.H, d.Region)
		d.Cells[ci].X, d.Cells[ci].Y = p.X, p.Y
		if len(nets) > 0 {
			d.Cells[ci].Pins = make([]int, 0, len(nets))
		}
		for _, ni := range nets {
			d.Connect(ci, ni, 0, 0)
			netHit[ni] = true
		}
		ch.Added = append(ch.Added, ci)
	}

	// Net reweights. A net is reweighted when its effective weight ends
	// where it did not start: setting a weight and then setting it back
	// changes nothing.
	startW := make(map[int]float64)
	var rewritten []int
	for _, r := range s.ReweightNets {
		ni, err := resolveNet(r.Net, r.NetID)
		if err != nil {
			return nil, err
		}
		if r.Weight <= 0 {
			return nil, fmt.Errorf("eco: net %d reweight needs a positive weight", ni)
		}
		if _, ok := startW[ni]; !ok {
			startW[ni] = d.Nets[ni].EffWeight()
			rewritten = append(rewritten, ni)
		}
		if d.Nets[ni].EffWeight() != r.Weight {
			d.Nets[ni].Weight = r.Weight
		}
	}
	for _, ni := range rewritten {
		if d.Nets[ni].EffWeight() != startW[ni] {
			ch.Reweighted = append(ch.Reweighted, ni)
			netHit[ni] = true
		}
	}

	// Region blocks: fixed zero-connectivity blockages.
	for k, b := range s.BlockRegions {
		r := b.rect().Intersect(d.Region)
		if !r.Valid() || r.Empty() {
			return nil, fmt.Errorf("eco: block region %d is empty after clipping to %v", k, d.Region)
		}
		c := r.Center()
		ci := d.AddCell(netlist.Cell{
			Name: fmt.Sprintf("ECO_BLOCK_%d_%d", len(d.Cells), k),
			W:    r.W(), H: r.H(), X: c.X, Y: c.Y,
			Kind: netlist.Macro, Fixed: true,
		})
		ch.Blocked = append(ch.Blocked, ci)
	}

	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("eco: script left design inconsistent: %w", err)
	}

	// The changed cells: every cell the script edited directly and every
	// cell still on a net whose weight or pins changed.
	cellHit := make([]bool, len(d.Cells))
	for _, cells := range [][]int{ch.Added, ch.Removed, ch.Blocked} {
		for _, ci := range cells {
			cellHit[ci] = true
		}
	}
	for ni, hit := range netHit {
		if !hit {
			continue
		}
		ch.Nets = append(ch.Nets, ni)
		for _, pi := range d.Nets[ni].Pins {
			if ci := d.Pins[pi].Cell; ci >= 0 {
				cellHit[ci] = true
			}
		}
	}
	for ci, hit := range cellHit {
		if hit {
			ch.Cells = append(ch.Cells, ci)
		}
	}
	return ch, nil
}
