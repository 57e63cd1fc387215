package core

// Direct evaluation of the two flooding protocols of Sec. II-B.
//
// Isolated Fragment Filtering and grouping are floods whose outcomes are
// graph quantities: IFF delivers to each member exactly the members within
// TTL hops through members, and min-ID label propagation converges to each
// member's component minimum. On the fault-free synchronous schedule their
// communication is a graph quantity too, so the default pipeline computes
// both outcome and accounting by traversal instead of stepping the sim
// kernel's message rounds:
//
//   - IFF: member o's packet reaches node u first at round dist(o,u)−1 with
//     TTL−dist(o,u) hops left, and u forwards it once, to all its member
//     neighbors, iff dist(o,u) < TTL. Messages are therefore the sum of
//     member degrees over the nodes each member's depth-TTL BFS reaches
//     below depth TTL, and the last delivery happens at round
//     max dist(o,u) over such nodes with a member neighbor.
//   - Grouping: after round r a node holds the minimum ID within r+1 hops,
//     so it adopts a new label exactly at the distances d where some source
//     is strictly closer than every smaller source; each adoption is one
//     broadcast, delivered at round d. Processing sources in ascending ID
//     with a BFS that expands a node only when it is reached strictly
//     closer than every smaller source did enumerates exactly those
//     adoptions, in O(messages) total work, and the first source to reach a
//     node is its label.
//
// With an observer attached the same pass reconstructs the kernel's flight
// recorder stream — per-round RoundBegin/RoundEnd accounting and the
// grouping TransLabelAdopt transitions in (round, node) order — so traces
// are identical to the simulated run's. TestDirectFloodMatchesSim and
// FuzzDirectFlood hold both evaluators to that, with internal/sim as the
// oracle; the kernels themselves still run the Async and Faults variants.

import (
	"context"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sim"
)

// memberGraph is the subgraph induced by a member mask with members renamed
// to local IDs in ascending global order. Local rows keep the source rows'
// order and multiplicity, so a row's length is the member's member degree —
// the number of copies one broadcast of that member puts on the air.
type memberGraph struct {
	csr  *graph.CSR
	glob []int32 // local -> global ID, ascending
	n    int     // global node count
}

// newMemberGraph compacts the subgraph of g induced by member. g must be
// undirected, as graph.Graph is by contract: the direct evaluators count
// what a member's search reaches where the protocol counts what reaches
// the member, and the two agree only on symmetric rows.
func newMemberGraph(g *graph.Graph, member []bool) (*memberGraph, error) {
	n := g.Len()
	loc := make([]int32, n)
	var glob []int32
	arcs := 0
	for i := range loc {
		loc[i] = -1
		if i < len(member) && member[i] {
			loc[i] = int32(len(glob))
			glob = append(glob, int32(i))
			arcs += len(g.Adj[i])
		}
	}
	rowPtr := make([]int32, len(glob)+1)
	col := make([]int32, 0, arcs)
	for l, gi := range glob {
		for _, v := range g.Adj[gi] {
			if loc[v] >= 0 {
				col = append(col, loc[v])
			}
		}
		rowPtr[l+1] = int32(len(col))
	}
	csr, err := graph.NewCSRFromParts(rowPtr, col)
	if err != nil {
		return nil, err
	}
	return &memberGraph{csr: csr, glob: glob, n: n}, nil
}

// iffFlood runs member src's IFF flood as a breadth-first search out to ttl
// hops through the nodes allowed admits (nil when rows is already the
// member subgraph) and returns src's fragment size: the flood delivers to
// src exactly the members within ttl member-hops, self included, and the
// search reaches exactly those. sc.Reached() then lists them in
// nondecreasing depth for the caller's accounting. A negative ttl floods
// nothing, as in the protocol. It is the one IFF fragment count of the
// batch, sharded and incremental engines.
func iffFlood(rows graph.Rows, sc *graph.Scratch, allowed *graph.NodeSet, src, ttl int) int {
	if ttl < 0 {
		ttl = 0
	}
	source := [1]int{src}
	graph.BFSHops(rows, sc, source[:], allowed, ttl)
	return len(sc.Reached())
}

// iffWorker is one IFF worker's scratch and accounting.
type iffWorker struct {
	sc       graph.Scratch
	messages int
	deepest  int     // deepest broadcasting depth with a member neighbor; -1 none
	perDepth []int64 // messages delivered per round (observed runs only)
}

// floodCount evaluates IFF's TTL-bounded flood: the counts, Rounds and
// Messages of sim.FloodCountStats(g, member, ttl, pr), and with pr.Obs set
// the same round stream and counters.
func floodCount(ctx context.Context, pr sim.Probe, g *graph.Graph, member []bool, ttl, workers int) ([]int, sim.Result, error) {
	mg, err := newMemberGraph(g, member)
	if err != nil {
		return nil, sim.Result{}, err
	}
	if ttl < 0 {
		ttl = 0
	}
	m := len(mg.glob)
	observed := pr.Obs != nil
	// depths bounds the broadcasting depths: below ttl, and below m since
	// no search goes deeper than the member count.
	depths := min(ttl, m)
	ws := make([]iffWorker, max(workers, 1))
	for w := range ws {
		ws[w].deepest = -1
		if observed {
			ws[w].perDepth = make([]int64, depths)
		}
	}
	// reach[l] is the deepest depth below ttl in l's own search: by
	// symmetry, the largest distance at which l forwards some member's
	// packet (every shallower depth occurs too, along shortest paths).
	// Observed runs derive per-round activity from it.
	var reach []int32
	if observed {
		reach = make([]int32, m)
	}
	counts := make([]int, mg.n)
	err = par.For(m, workers, func(w, l int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		wk := &ws[w]
		counts[mg.glob[l]] = iffFlood(mg.csr, &wk.sc, nil, l, ttl)
		reached := int32(-1)
		for _, u := range wk.sc.Reached() {
			d := wk.sc.Dist(int(u))
			if d >= ttl {
				break // BFS order: the rest sit at depth ttl and stay silent
			}
			deg := mg.csr.Degree(int(u))
			wk.messages += deg
			if deg > 0 && d > wk.deepest {
				wk.deepest = d
			}
			if observed {
				wk.perDepth[d] += int64(deg)
			}
			reached = int32(d)
		}
		if observed {
			reach[l] = reached
		}
		return nil
	})
	if err != nil {
		return nil, sim.Result{}, err
	}
	var res sim.Result
	deepest := -1
	for w := range ws {
		res.Messages += ws[w].messages
		deepest = max(deepest, ws[w].deepest)
	}
	res.Rounds = deepest + 1
	if observed {
		perDepth := make([]int64, depths)
		for w := range ws {
			for d, v := range ws[w].perDepth {
				perDepth[d] += v
			}
		}
		emitIFFRounds(pr, mg, reach, perDepth, res.Rounds)
		emitKernelCounters(pr, res)
	}
	return counts, res, nil
}

// emitIFFRounds replays the IFF kernel's round stream. A packet sent by a
// node at depth d is delivered in round d, so perDepth[r] is round r's
// deliveries and perDepth[r+1] its sends (the Init round sends what round 0
// delivers). Node v receives in round r iff some member neighbor u is
// reached at depth r, i.e. r <= reach[u].
func emitIFFRounds(pr sim.Probe, mg *memberGraph, reach []int32, perDepth []int64, rounds int) {
	m := len(mg.glob)
	at := func(r int) int64 {
		if r < len(perDepth) {
			return perDepth[r]
		}
		return 0
	}
	// lastActive[v] is the last round v receives anything; -1 never.
	lastActive := make([]int32, m)
	for v := range lastActive {
		lastActive[v] = -1
	}
	for u := 0; u < m; u++ {
		for _, v := range mg.csr.Neighbors(u) {
			lastActive[v] = max(lastActive[v], reach[u])
		}
	}
	active := make([]int64, rounds+1) // active[r] = #nodes whose last round is r
	for _, r := range lastActive {
		if r >= 0 {
			active[r]++
		}
	}
	for r := rounds - 1; r >= 0; r-- {
		active[r] += active[r+1]
	}
	pr.Obs.RoundBegin(pr.Stage, obs.InitRound)
	pr.Obs.RoundEnd(pr.Stage, obs.InitRound, obs.RoundStats{Sent: at(0), Active: int64(m)})
	for r := 0; r < rounds; r++ {
		pr.Obs.RoundBegin(pr.Stage, r)
		pr.Obs.RoundEnd(pr.Stage, r, obs.RoundStats{Sent: at(r + 1), Delivered: at(r), Active: active[r]})
	}
}

// emitKernelCounters mirrors the sim kernel's end-of-run counters for a
// fault-free run: every send is a delivery.
func emitKernelCounters(pr sim.Probe, res sim.Result) {
	obs.Add(pr.Obs, pr.Stage, obs.CtrFloodRounds, int64(res.Rounds))
	obs.Add(pr.Obs, pr.Stage, obs.CtrMsgsSent, int64(res.Messages))
	obs.Add(pr.Obs, pr.Stage, obs.CtrMsgsDelivered, int64(res.Messages))
}

// adoption is one grouping label change: node adopts label in round.
type adoption struct {
	round, node, label int32
}

// labelComponents evaluates min-ID label propagation: the labels, Rounds
// and Messages of sim.LabelComponentsStats(g, member, pr), and with pr.Obs
// set the same round stream, TransLabelAdopt transitions and counters.
func labelComponents(pr sim.Probe, g *graph.Graph, member []bool) ([]int, sim.Result, error) {
	mg, err := newMemberGraph(g, member)
	if err != nil {
		return nil, sim.Result{}, err
	}
	m := len(mg.glob)
	observed := pr.Obs != nil
	label := make([]int32, m)
	// best[v] is v's distance to the nearest source processed so far; for
	// a node on the current search's queue that is its distance from s.
	best := make([]int32, m)
	mark := make([]int32, m) // mark[v] == s+1 ⟺ source s's search saw v
	for v := range label {
		label[v] = -1
		best[v] = math.MaxInt32
	}
	queue := make([]int32, 0, m)
	var adopts []adoption
	messages, deepest := 0, int32(0)
	for s := int32(0); s < int32(m); s++ {
		// Init: every member announces its own ID once.
		messages += mg.csr.Degree(int(s))
		if label[s] < 0 {
			label[s] = s // no smaller source reaches s: it is its component's minimum
		}
		best[s], mark[s] = 0, s+1
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v := range mg.csr.Neighbors(int(u)) {
				if mark[v] == s+1 {
					continue
				}
				mark[v] = s + 1
				d := best[u] + 1
				if d >= best[v] {
					continue // a smaller source is at least as close: no adoption here or beyond
				}
				// v adopts s in round d-1 and rebroadcasts it.
				best[v] = d
				if label[v] < 0 {
					label[v] = s
				}
				messages += mg.csr.Degree(int(v))
				deepest = max(deepest, d)
				if observed {
					adopts = append(adopts, adoption{round: d - 1, node: v, label: s})
				}
				queue = append(queue, v)
			}
		}
	}
	out := make([]int, mg.n)
	for i := range out {
		out[i] = sim.NoGroup
	}
	for l, gl := range mg.glob {
		out[gl] = int(mg.glob[label[l]])
	}
	var res sim.Result
	res.Messages = messages
	if messages > 0 {
		// Adoptions at distance d are delivered in round d; with no
		// adoption the Init announcements are still delivered in round 0.
		res.Rounds = int(deepest) + 1
	}
	if observed {
		emitGroupingRounds(pr, mg, adopts, res.Rounds)
		emitKernelCounters(pr, res)
	}
	return out, res, nil
}

// emitGroupingRounds replays the grouping kernel's round stream. Round r
// delivers the broadcasts of round r−1's adopters (the Init round's: every
// member) to their member neighbors, and its own adopters — reported as
// TransLabelAdopt in ascending node order, as the kernel steps them —
// broadcast to be delivered in round r+1.
func emitGroupingRounds(pr sim.Probe, mg *memberGraph, adopts []adoption, rounds int) {
	slices.SortFunc(adopts, func(a, b adoption) int {
		if a.round != b.round {
			return int(a.round - b.round)
		}
		return int(a.node - b.node)
	})
	sent := func(senders []adoption) int64 {
		var arcs int64
		for _, a := range senders {
			arcs += int64(mg.csr.Degree(int(a.node)))
		}
		return arcs
	}
	m := len(mg.glob)
	prev := make([]adoption, m) // Init: every member announces its ID
	for l := range prev {
		prev[l].node = int32(l)
	}
	stamp := make([]int32, m) // stamp[v] == r+1 ⟺ v already counted active in round r
	pr.Obs.RoundBegin(pr.Stage, obs.InitRound)
	pr.Obs.RoundEnd(pr.Stage, obs.InitRound, obs.RoundStats{Sent: sent(prev), Active: int64(m)})
	for r := int32(0); r < int32(rounds); r++ {
		var delivered, active int64
		for _, a := range prev {
			for _, v := range mg.csr.Neighbors(int(a.node)) {
				delivered++
				if stamp[v] != r+1 {
					stamp[v] = r + 1
					active++
				}
			}
		}
		end := 0
		for end < len(adopts) && adopts[end].round == r {
			end++
		}
		cur := adopts[:end]
		adopts = adopts[end:]
		pr.Obs.RoundBegin(pr.Stage, int(r))
		for _, a := range cur {
			pr.Obs.NodeTransition(pr.Stage, obs.TransLabelAdopt, int(mg.glob[a.node]), int64(mg.glob[a.label]))
		}
		pr.Obs.RoundEnd(pr.Stage, int(r), obs.RoundStats{Sent: sent(cur), Delivered: delivered, Active: active})
		prev = cur
	}
}
