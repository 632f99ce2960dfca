package core

import (
	"context"
	"math/rand"
	"runtime"
	"sync"

	"agingfp/internal/arch"
	"agingfp/internal/flight"
)

// maxParallelism bounds the worker fan-out of CPU-bound scoring loops.
var maxParallelism = runtime.GOMAXPROCS(0)

// A path (as a set of grid points) has 8 unique orientations on a square
// fabric: the 4 rotations and their x-mirrors (§V.B.1, Fig. 4a). All 8
// are grid isometries, so intra-context Manhattan distances — and hence
// the frozen critical paths' own delays — are preserved exactly.
const numOrientations = 8

// orient applies orientation o (0..7: rotation o%4 quarter-turns
// clockwise, then x-mirror if o >= 4) to c on fabric f. Quarter-turn
// rotations require a square fabric; callers restrict o on non-square
// fabrics.
func orient(c arch.Coord, o int, f arch.Fabric) arch.Coord {
	x, y := c.X, c.Y
	switch o % 4 {
	case 1: // 90 degrees clockwise
		x, y = y, f.W-1-c.X
	case 2: // 180 degrees
		x, y = f.W-1-c.X, f.H-1-c.Y
	case 3: // 270 degrees clockwise
		x, y = f.H-1-c.Y, c.X
	}
	if o >= 4 {
		x = f.W - 1 - x
	}
	return arch.Coord{X: x, Y: y}
}

// allowedOrientations returns the orientation set valid for f: all 8 on
// square fabrics, the 4 that avoid quarter turns otherwise.
func allowedOrientations(f arch.Fabric) []int {
	if f.W == f.H {
		return []int{0, 1, 2, 3, 4, 5, 6, 7}
	}
	return []int{0, 2, 4, 6}
}

// orientationPool builds the multiset of orientations to distribute over
// numContexts contexts per the paper's rule: with C <= |orients| no
// orientation repeats; otherwise each orientation appears
// C div |orients| times and the remainder is spread so no orientation
// exceeds that count plus one.
func orientationPool(orients []int, numContexts int, rng *rand.Rand) []int {
	k := len(orients)
	pool := make([]int, 0, numContexts)
	base := numContexts / k
	for _, o := range orients {
		for i := 0; i < base; i++ {
			pool = append(pool, o)
		}
	}
	rem := numContexts - len(pool)
	perm := rng.Perm(k)
	for i := 0; i < rem; i++ {
		pool = append(pool, orients[perm[i]])
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// rotateFrozen chooses an orientation per context for the frozen
// critical-path ops and returns their new positions.
//
// The assignment is selected among rotationRestarts random pools (each
// satisfying the paper's distinctness rule) by minimizing
//
//	sum over PEs of (stacked frozen stress)^2  +  cross-arc growth penalty
//
// The quadratic term is the rotation step's purpose: it measures how much
// critical-path stress piles onto individual PEs across contexts (§V.B.1
// — a PE hosting critical ops in every context can never be relieved).
// The growth penalty keeps rotated paths from stretching their fixed
// registered arcs, which would eat (or bust) the monitored paths' wire
// budgets outright.
//
// The winner is journaled as one rotate event, which the fold also
// reports as the "core.rotate.select" instant event.
//
// Cancellation: a canceled ctx makes the scoring workers stop early and
// the identity assignment (all ops at their original PEs) is returned;
// the caller notices ctx.Err() itself and discards the run.
func rotateFrozen(ctx context.Context, d *arch.Design, m arch.Mapping, frozen map[int]bool, opts Options, rng *rand.Rand, f *fold) map[int]arch.Coord {
	out := make(map[int]arch.Coord, len(frozen))
	if opts.Mode == Freeze || ctx.Err() != nil {
		for op := range frozen {
			out[op] = m[op]
		}
		return out
	}

	orients := allowedOrientations(d.Fabric)
	// Frozen ops per context, in ascending op order: evalAssign
	// accumulates floating-point stress in this order, and map-order
	// iteration here would perturb the rounding — and hence near-tie
	// argmin picks — from run to run.
	frozenByCtx := make([][]int, d.NumContexts)
	for op := 0; op < d.NumOps(); op++ {
		if frozen[op] {
			c := d.Ctx[op]
			frozenByCtx[c] = append(frozenByCtx[c], op)
		}
	}
	// Cross arcs between frozen ops of different contexts.
	type arcT struct{ a, b int }
	var crossArcs []arcT
	for _, e := range d.Graph.Edges {
		if frozen[e.From] && frozen[e.To] && d.Ctx[e.From] != d.Ctx[e.To] {
			crossArcs = append(crossArcs, arcT{e.From, e.To})
		}
	}

	evalAssign := func(assign []int) float64 {
		// Dense per-PE accumulator, summed in PE-index order: a map here
		// would sum in iteration order and make the score differ in the
		// last ulp between otherwise identical calls.
		stack := make([]float64, d.Fabric.NumPEs())
		for c := 0; c < d.NumContexts; c++ {
			for _, op := range frozenByCtx[c] {
				stack[d.Fabric.Index(orient(m[op], assign[c], d.Fabric))] += d.StressRate(op)
			}
		}
		score := 0.0
		for _, s := range stack {
			score += s * s
		}
		// Cross arcs between frozen ops are fixed constants in the MILP:
		// stretching one beyond its original length eats (or busts) its
		// path's wire budget outright, so growth is penalized hard while
		// same-or-shorter lengths stay free.
		for _, a := range crossArcs {
			pa := orient(m[a.a], assign[d.Ctx[a.a]], d.Fabric)
			pb := orient(m[a.b], assign[d.Ctx[a.b]], d.Fabric)
			if growth := pa.Dist(pb) - m[a.a].Dist(m[a.b]); growth > 0 {
				score += 1.0 * float64(growth)
			}
		}
		return score
	}

	// Candidate pools are drawn serially (the rng sequence fixes them, so
	// results stay reproducible for a given seed); scoring — the expensive
	// part, O(frozen ops + cross arcs) per pool — fans out over a bounded
	// worker set. The argmin below runs serially in pool order with a
	// strict <, so ties resolve exactly as the sequential loop did.
	assigns := make([][]int, rotationRestarts)
	for r := range assigns {
		assigns[r] = orientationPool(orients, d.NumContexts, rng)
	}
	scores := make([]float64, rotationRestarts)
	workers := maxParallelism
	if workers > rotationRestarts {
		workers = rotationRestarts
	}
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for r := range next {
				if ctx.Err() != nil {
					continue // drain the channel without scoring
				}
				scores[r] = evalAssign(assigns[r])
			}
		}()
	}
	for r := 0; r < rotationRestarts; r++ {
		next <- r
	}
	close(next)
	wg.Wait()
	if ctx.Err() != nil {
		// Partial scores are meaningless; hand back the identity
		// assignment and let the caller observe the cancellation.
		for op := range frozen {
			out[op] = m[op]
		}
		return out
	}

	// Journal the restart scores serially in index order (the workers
	// above stored them by index, so the journal stays deterministic).
	for r := 0; r < rotationRestarts; r++ {
		f.event(flight.Event{Kind: flight.KindRotateScore,
			Round: r, Obj: scores[r], N: len(crossArcs)})
	}

	best, bestScore := assigns[0], scores[0]
	bestR := 0
	for r := 1; r < rotationRestarts; r++ {
		if scores[r] < bestScore {
			best, bestScore = assigns[r], scores[r]
			bestR = r
		}
	}
	f.event(flight.Event{Kind: flight.KindRotate,
		Round: bestR, Obj: bestScore, N: len(crossArcs)})
	for c := 0; c < d.NumContexts; c++ {
		f.event(flight.Event{Kind: flight.KindRotateCtx, Ctx: c, Var: best[c]})
	}
	for op := range frozen {
		out[op] = orient(m[op], best[d.Ctx[op]], d.Fabric)
	}
	return out
}
