// Package place implements the sequential baseline's placer: a
// TimberWolfSC-style simulated-annealing placement (the paper's reference
// [6], the basis of the Texas Instruments tool compared against) that
// minimizes estimated wirelength plus a channel-congestion penalty. Like the
// production flow the paper measures, it is deliberately blind to the
// channel segmentation and to timing — that blindness is exactly what the
// simultaneous approach exploits.
package place

import (
	"math/rand"

	"repro/internal/anneal"
	"repro/internal/arch"
	"repro/internal/layout"
	"repro/internal/netlist"
)

// The congestion model.
const (
	congestionWeight = 2.0  // weight of the congestion-overflow penalty
	capacityFactor   = 0.75 // usable fraction of per-bin track capacity
	binWidth         = 4    // columns per congestion bin
)

// Config tunes the baseline placer.
type Config struct {
	Seed         int64
	MovesPerCell int // moves per temperature = MovesPerCell × #cells (default 12)
	MaxTemps     int // annealing temperature cap (default 250)

	// NetWeights, when non-nil, scales each net's wirelength contribution —
	// the classic criticality-weighted timing-driven placement (paper §2.1:
	// "placers often use initial critical path/net estimates to prioritize
	// the nets"). nil means uniform weights.
	NetWeights []float64
}

func (c *Config) setDefaults() {
	if c.MovesPerCell <= 0 {
		c.MovesPerCell = 12
	}
	if c.MaxTemps <= 0 {
		c.MaxTemps = 250
	}
}

// Result summarizes a placement run.
type Result struct {
	Wirelength float64
	Penalty    float64
	Anneal     anneal.Result
}

// Place anneals a random initial placement of nl onto a and returns it.
func Place(a *arch.Arch, nl *netlist.Netlist, cfg Config) (*layout.Placement, Result, error) {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	p, err := layout.NewRandom(a, nl, rng)
	if err != nil {
		return nil, Result{}, err
	}
	pr := newProblem(p, cfg)
	ares := anneal.Run(pr, anneal.Config{
		Seed:         cfg.Seed + 1,
		MovesPerTemp: cfg.MovesPerCell * nl.NumCells(),
		MaxTemps:     cfg.MaxTemps,
	}, nil)
	return p, Result{Wirelength: pr.wl, Penalty: pr.penalty, Anneal: ares}, nil
}

// netContrib caches one net's current contribution to the cost terms.
type netContrib struct {
	wl   float64
	bins []chLen
}

// chLen is a net's occupied length within one (channel, column-bin) cell of
// the congestion map.
type chLen struct {
	bin int // flattened channel*nbins + bin index
	len float64
}

type problem struct {
	p   *layout.Placement
	cfg Config

	wl      float64
	nbins   int       // congestion bins per channel
	loads   []float64 // per (channel, bin): occupied interval length
	penalty float64   // sum over bins of overflow²
	cap     float64   // usable capacity per bin

	contrib []netContrib

	// Move journal.
	movedA, movedB layout.Loc
	touched        []int32
	oldContrib     []netContrib
	oldWL          float64
	oldPenalty     float64
	netSeen        []uint32
	epoch          uint32
	scratch        []int32
}

func newProblem(p *layout.Placement, cfg Config) *problem {
	nbins := (p.A.Cols + binWidth - 1) / binWidth
	pr := &problem{
		p:       p,
		cfg:     cfg,
		nbins:   nbins,
		loads:   make([]float64, p.A.Channels()*nbins),
		contrib: make([]netContrib, p.NL.NumNets()),
		netSeen: make([]uint32, p.NL.NumNets()),
		cap:     capacityFactor * float64(p.A.Tracks) * binWidth,
	}
	for id := range pr.contrib {
		c := pr.computeContrib(int32(id))
		pr.contrib[id] = c
		pr.wl += c.wl
		for _, cl := range c.bins {
			pr.loads[cl.bin] += cl.len
		}
	}
	for _, l := range pr.loads {
		pr.penalty += pr.overflow(l)
	}
	return pr
}

func (pr *problem) overflow(load float64) float64 {
	d := load - pr.cap
	if d <= 0 {
		return 0
	}
	return d * d
}

// computeContrib derives a net's wirelength and per-channel occupied length
// from the current placement (matching groute.Needs geometry).
func (pr *problem) computeContrib(id int32) netContrib {
	nl := pr.p.NL
	net := &nl.Nets[id]
	if len(net.Sinks) == 0 {
		return netContrib{}
	}
	var c netContrib
	type iv struct{ lo, hi int }
	byCh := make(map[int]iv, 2)
	add := func(ch, col int) {
		v, ok := byCh[ch]
		if !ok {
			byCh[ch] = iv{col, col}
			return
		}
		if col < v.lo {
			v.lo = col
		}
		if col > v.hi {
			v.hi = col
		}
		byCh[ch] = v
	}
	ch, col := pr.p.PinPos(net.Driver)
	add(ch, col)
	for _, s := range net.Sinks {
		ch, col = pr.p.PinPos(s)
		add(ch, col)
	}
	// A multi-channel net's intervals will be extended to its feedthrough
	// column by the global router; model that with the bounding-box center
	// the router prefers.
	if len(byCh) > 1 {
		box := pr.p.NetBox(id)
		center := (box.ColLo + box.ColHi) / 2
		for ch, v := range byCh {
			if center < v.lo {
				v.lo = center
			}
			if center > v.hi {
				v.hi = center
			}
			byCh[ch] = v
		}
	}
	c.wl = pr.p.EstLength(id)
	if pr.cfg.NetWeights != nil {
		c.wl *= pr.cfg.NetWeights[id]
	}
	for ch, v := range byCh {
		for b := v.lo / binWidth; b <= v.hi/binWidth; b++ {
			lo, hi := b*binWidth, (b+1)*binWidth-1
			if v.lo > lo {
				lo = v.lo
			}
			if v.hi < hi {
				hi = v.hi
			}
			c.bins = append(c.bins, chLen{bin: ch*pr.nbins + b, len: float64(hi - lo + 1)})
		}
	}
	return c
}

func (pr *problem) Cost() float64 {
	return pr.wl + congestionWeight*pr.penalty
}

func (pr *problem) Propose(rng *rand.Rand) float64 {
	a := pr.p.A
	// Pick a random occupied slot and a random other slot (swap or translate).
	var la layout.Loc
	for {
		la = layout.Loc{Row: rng.Intn(a.Rows), Col: rng.Intn(a.Cols)}
		if pr.p.CellAt(la.Row, la.Col) >= 0 {
			break
		}
	}
	lb := layout.Loc{Row: rng.Intn(a.Rows), Col: rng.Intn(a.Cols)}
	pr.movedA, pr.movedB = la, lb
	before := pr.Cost()
	pr.oldWL, pr.oldPenalty = pr.wl, pr.penalty

	// Collect affected nets before the swap.
	pr.epoch++
	pr.touched = pr.touched[:0]
	pr.oldContrib = pr.oldContrib[:0]
	pr.collectNets(pr.p.CellAt(la.Row, la.Col))
	pr.collectNets(pr.p.CellAt(lb.Row, lb.Col))

	pr.p.Swap(la, lb)

	for _, id := range pr.touched {
		old := pr.contrib[id]
		pr.oldContrib = append(pr.oldContrib, old)
		pr.wl -= old.wl
		for _, cl := range old.bins {
			pr.penalty -= pr.overflow(pr.loads[cl.bin])
			pr.loads[cl.bin] -= cl.len
			pr.penalty += pr.overflow(pr.loads[cl.bin])
		}
		nc := pr.computeContrib(id)
		pr.contrib[id] = nc
		pr.wl += nc.wl
		for _, cl := range nc.bins {
			pr.penalty -= pr.overflow(pr.loads[cl.bin])
			pr.loads[cl.bin] += cl.len
			pr.penalty += pr.overflow(pr.loads[cl.bin])
		}
	}
	return pr.Cost() - before
}

func (pr *problem) collectNets(cell int32) {
	if cell < 0 {
		return
	}
	c := &pr.p.NL.Cells[cell]
	pr.scratch = pr.scratch[:0]
	if c.Out >= 0 {
		pr.scratch = append(pr.scratch, c.Out)
	}
	for _, in := range c.In {
		if in >= 0 {
			pr.scratch = append(pr.scratch, in)
		}
	}
	for _, id := range pr.scratch {
		if pr.netSeen[id] != pr.epoch {
			pr.netSeen[id] = pr.epoch
			pr.touched = append(pr.touched, id)
		}
	}
}

func (pr *problem) Accept() {}

func (pr *problem) Reject() {
	pr.p.Swap(pr.movedA, pr.movedB)
	for i, id := range pr.touched {
		nc := pr.contrib[id]
		for _, cl := range nc.bins {
			pr.loads[cl.bin] -= cl.len
		}
		old := pr.oldContrib[i]
		pr.contrib[id] = old
		for _, cl := range old.bins {
			pr.loads[cl.bin] += cl.len
		}
	}
	pr.wl = pr.oldWL
	pr.penalty = pr.oldPenalty
}

var _ anneal.Problem = (*problem)(nil)
