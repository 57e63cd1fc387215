package core

// The sharded detection engine: the node set is cut into spatial shards
// (internal/partition over geom.PointGrid), each shard materializes a
// compacted struct-of-arrays view of its owned nodes plus a bounded ghost
// halo, the per-node phases run shard-parallel over those views, and the
// boundary groups are stitched back together with a deterministic
// union-find merge.
//
// Bit-identity with the unsharded pipeline rests on three facts, spelled
// out here because every test in shard_differential_test.go enforces them:
//
//  1. Locality (the paper's Sec. II): a node's UBF verdict reads its
//     two-hop neighborhood at most (coordinates of the frames it stitches),
//     and its IFF count reads the members within IFFTTL hops. A view at
//     halo depth D = max(scope hops, IFFTTL) therefore contains every node
//     any owned-node computation dereferences.
//  2. Edge completeness: a view keeps exactly the global adjacency
//     restricted to its node set, so any edge whose endpoints are both in
//     the view survives compaction — and every node at view depth d < D has
//     its *entire* global row present (its neighbors sit at depth ≤ d+1).
//     Traversals that only expand nodes below the halo boundary behave
//     exactly as on the full graph.
//  3. Monotone renaming: view nodes are sorted by global ID, so local IDs
//     are an order-preserving relabeling. Every order the pipeline's
//     kernels depend on — adjacency scan order, two-hop first-appearance
//     order, MDS member order, grid insertion order — is preserved, and
//     with it every tie-break, work counter, and floating-point operation
//     sequence.
//
// The flooding phases are evaluated by direct traversal, as on the default
// unsharded path (flood.go): IFF by the same per-member TTL-bounded BFS
// kernel (iffFlood) run on each view with the member set as filter, and
// grouping by a union-find stitch of the shards' boundary edges. The
// protocols compute graph quantities — |members within TTL hops through
// members| and per-component minimum IDs — that the traversals reproduce
// exactly. A sharded run has no single global flood to account for, so
// Async and Faults are ignored and Result.IFFMessages/GroupingMessages/
// FaultStats stay zero.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/netgen"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition/shard"
	"repro/internal/sim"
)

// shardView is one shard's compacted working set: struct-of-arrays tables
// over the view nodes (owned ∪ halo) with local contiguous IDs.
type shardView struct {
	// tab holds the view-local adjacency, positions and measured
	// distances; node l of tab is global node glob[l].
	tab NodeTable
	// glob maps local to global IDs, ascending — the renaming is monotone.
	glob []int32
	// depth is each view node's hop distance from the owned set: 0 for
	// owned nodes, 1..D for ghosts.
	depth []int8
	// owned lists the local IDs the shard owns, ascending.
	owned []int32
	// frames are the per-local-node MDS charts (CoordsMDS only), built for
	// every node whose frame an owned node's stitch can read.
	frames []frame
}

// maxShardHalo bounds the halo depth the sharded engine accepts; beyond it
// (an absurd IFFTTL) the halo would swallow the whole graph anyway, so the
// run falls back to the unsharded pipeline.
const maxShardHalo = 120

// shardHaloDepth returns the ghost-halo depth a configuration needs: the
// emptiness-knowledge scope in hops, or the IFF flood's TTL, whichever
// reaches farther.
func shardHaloDepth(cfg Config) int {
	d := 1
	if cfg.Scope == ScopeTwoHop {
		d = 2
	}
	if cfg.IFFThreshold >= 0 && cfg.IFFTTL > d {
		d = cfg.IFFTTL
	}
	return d
}

// buildShardView compacts shard s of the partition into local tables:
// view nodes ascending by global ID, adjacency filtered to the view,
// measured distances carried arc-parallel.
func buildShardView(tab *NodeTable, shd *shard.Sharding, s, depthHops int, sc *graph.Scratch) (*shardView, error) {
	glob, depth := shd.ViewNodes(tab.CSR, s, depthHops, nil, sc)
	nv := len(glob)
	v := &shardView{glob: glob, depth: depth}

	arcs := 0
	for _, g := range glob {
		arcs += tab.CSR.Degree(int(g))
	}
	rowPtr := make([]int32, nv+1)
	col := make([]int32, 0, arcs)
	var measFlat []float64
	if tab.Meas != nil {
		measFlat = make([]float64, 0, arcs)
	}
	pos := make([]geom.Vec3, nv)
	for l := 0; l < nv; l++ {
		g := int(glob[l])
		pos[l] = tab.Pos[g]
		rowPtr[l] = int32(len(col))
		row := tab.CSR.Neighbors(g)
		mrow := tab.MeasRow(g)
		for k, nb := range row {
			// Keep the arc when the neighbor is in the view; the local ID
			// is its position in the ascending glob array.
			at := sort.Search(nv, func(i int) bool { return glob[i] >= nb })
			if at == nv || glob[at] != nb {
				continue
			}
			col = append(col, int32(at))
			if measFlat != nil {
				measFlat = append(measFlat, mrow[k])
			}
		}
	}
	rowPtr[nv] = int32(len(col))
	csr, err := graph.NewCSRFromParts(rowPtr, col)
	if err != nil {
		return nil, err
	}
	v.tab = NodeTable{CSR: csr, Pos: pos, Meas: measFlat, Radius: tab.Radius}
	for l, d := range depth {
		if d == 0 {
			v.owned = append(v.owned, int32(l))
		}
	}
	return v, nil
}

// detectSharded is the Config.Shards > 1 execution path of DetectContext:
// same contract, same result bits, spatially sharded execution. cfg arrives
// validated and with defaults applied.
func detectSharded(ctx context.Context, o obs.Observer, net *netgen.Network, meas *netgen.Measurement, cfg Config) (*Result, error) {
	depthHops := shardHaloDepth(cfg)
	if depthHops > maxShardHalo {
		cfg.Shards = 1
		return DetectContext(ctx, o, net, meas, cfg)
	}

	detectSpan := obs.Start(o, obs.StageDetect)
	defer detectSpan.End()

	tab := NewNodeTable(net, meas)
	n := tab.Len()
	obs.Add(o, obs.StageDetect, obs.CtrNodes, int64(n))
	res := &Result{
		UBF:          make([]bool, n),
		BallsTested:  make([]int, n),
		NodesChecked: make([]int, n),
	}
	radius := cfg.BallRadiusFactor * (1 + cfg.Epsilon) * tab.Radius
	tol := cfg.InteriorTolerance * radius

	// Partition the volume and materialize every shard's view. Empty
	// shards (more shards than populated grid regions) stay nil.
	partSpan := obs.Start(o, obs.StagePartition)
	shd, err := shard.Spatial(tab.Pos, cfg.Shards)
	if err != nil {
		partSpan.End()
		return nil, err
	}
	views := make([]*shardView, cfg.Shards)
	scratch := make([]graph.Scratch, cfg.Workers)
	err = par.For(cfg.Shards, cfg.Workers, func(w, s int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if shd.OwnedCount(s) == 0 {
			return nil
		}
		v, verr := buildShardView(tab, shd, s, depthHops, &scratch[w])
		if verr != nil {
			return fmt.Errorf("shard %d view: %w", s, verr)
		}
		views[s] = v
		return nil
	})
	var halo int64
	for _, v := range views {
		if v != nil {
			halo += int64(len(v.glob) - len(v.owned))
		}
	}
	obs.Add(o, obs.StagePartition, obs.CtrShards, int64(cfg.Shards))
	obs.Add(o, obs.StagePartition, obs.CtrHaloNodes, halo)
	partSpan.End()
	if err != nil {
		return nil, err
	}

	// Stage 1 (CoordsMDS only): frames, per shard. A shard builds frames
	// for its owned nodes and for every ghost whose frame an owned node's
	// two-hop stitch reads (depth ≤ 1); ghost frames are recomputed
	// identically by every shard that needs them — MDS is deterministic in
	// its inputs, and fact 3 above keeps the inputs identical.
	if cfg.Coords == CoordsMDS {
		framesSpan := obs.Start(o, obs.StageFrames)
		res.CoordError = make([]float64, n)
		frameDepth := int8(0)
		if cfg.Scope == ScopeTwoHop {
			frameDepth = 1
		}
		err := par.For(cfg.Shards, cfg.Workers, func(_, s int) error {
			v := views[s]
			if v == nil {
				return nil
			}
			v.frames = make([]frame, len(v.glob))
			for l := range v.glob {
				if err := ctx.Err(); err != nil {
					return err
				}
				if v.depth[l] > frameDepth {
					continue
				}
				f, ferr := buildFrame(&v.tab, cfg, l)
				if ferr != nil {
					return fmt.Errorf("node %d frame: %w", v.glob[l], ferr)
				}
				v.frames[l] = f
				if v.depth[l] != 0 {
					continue
				}
				truth := make([]geom.Vec3, len(f.members))
				for k, m := range f.members {
					truth[k] = v.tab.Pos[m]
				}
				if _, rmsd, aerr := geom.AlignRigid(f.coords, truth); aerr == nil {
					res.CoordError[v.glob[l]] = rmsd
				}
			}
			return nil
		})
		framesSpan.End()
		if err != nil {
			return nil, err
		}
	}

	// Stage 2: Unit Ball Fitting, per shard over owned nodes. Worker
	// scratch is shared across shards; the epoch-stamped buffers re-arm
	// per node regardless of the view size changing underneath them.
	ubfSpan := obs.Start(o, obs.StageUBF)
	ubfScratch := make([]UBFScratch, cfg.Workers)
	asm := make([]assembleScratch, cfg.Workers)
	err = par.For(cfg.Shards, cfg.Workers, func(w, s int) error {
		v := views[s]
		if v == nil {
			return nil
		}
		for _, l32 := range v.owned {
			if err := ctx.Err(); err != nil {
				return err
			}
			l := int(l32)
			coords, candidates, spreads := assembleKnowledge(&v.tab, cfg, v.frames, l, &asm[w])
			fitNode(&ubfScratch[w], res, int(v.glob[l]), coords, candidates, spreads, radius, tol, cfg.AdaptiveTolFactor)
		}
		return nil
	})
	reportUBF(o, res)
	ubfSpan.End()
	if err != nil {
		return nil, err
	}

	// Stage 3: Isolated Fragment Filtering. The UBF barrier above is the
	// halo exchange: every shard now reads the global verdicts for its
	// ghosts. Each owned member's fragment size is the node count of a
	// depth-TTL BFS restricted to members — exactly the set of origins the
	// flooding protocol delivers to it (distance through member nodes,
	// self included at distance zero).
	res.Boundary = make([]bool, n)
	iffSpan := obs.Start(o, obs.StageIFF)
	if cfg.IFFThreshold < 0 {
		copy(res.Boundary, res.UBF)
		res.FragmentSize = make([]int, n)
	} else {
		counts := make([]int, n)
		members := make([]graph.NodeSet, cfg.Workers)
		err = par.For(cfg.Shards, cfg.Workers, func(w, s int) error {
			v := views[s]
			if v == nil {
				return nil
			}
			mset := &members[w]
			mset.Reset(len(v.glob))
			for l, g := range v.glob {
				if res.UBF[g] {
					mset.Add(l)
				}
			}
			for _, l32 := range v.owned {
				if err := ctx.Err(); err != nil {
					return err
				}
				g := v.glob[l32]
				if !res.UBF[g] {
					continue
				}
				counts[g] = iffFlood(v.tab.CSR, &scratch[w], mset, int(l32), cfg.IFFTTL)
			}
			return nil
		})
		if err != nil {
			iffSpan.End()
			return nil, err
		}
		res.FragmentSize = counts
		for i := range res.Boundary {
			res.Boundary[i] = res.UBF[i] && counts[i] >= cfg.IFFThreshold
			if res.UBF[i] && !res.Boundary[i] {
				obs.NodeTransition(o, obs.StageIFF, obs.TransIFFRescind, i, int64(counts[i]))
			}
		}
	}
	if o != nil {
		var final int64
		for _, b := range res.Boundary {
			if b {
				final++
			}
		}
		obs.Add(o, obs.StageIFF, obs.CtrBoundary, final)
	}
	iffSpan.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Stage 4: grouping. Each shard emits the boundary edges incident to
	// its owned nodes (owned rows are complete, so every boundary edge is
	// emitted by at least one endpoint's owner); the stitch is a
	// union-find merge keeping the smallest ID as each component's root,
	// which reproduces the min-ID labels of the propagation protocol in
	// any merge order.
	groupSpan := obs.Start(o, obs.StageGrouping)
	shardEdges := make([][][2]int32, cfg.Shards)
	err = par.For(cfg.Shards, cfg.Workers, func(_, s int) error {
		v := views[s]
		if v == nil {
			return nil
		}
		var edges [][2]int32
		for _, l32 := range v.owned {
			g := v.glob[l32]
			if !res.Boundary[g] {
				continue
			}
			for _, nb := range v.tab.CSR.Neighbors(int(l32)) {
				gb := v.glob[nb]
				if res.Boundary[gb] {
					edges = append(edges, [2]int32{g, gb})
				}
			}
		}
		shardEdges[s] = edges
		return nil
	})
	if err != nil {
		groupSpan.End()
		return nil, err
	}
	res.GroupLabel = stitchGroups(n, res.Boundary, shardEdges)
	res.Groups = sim.Groups(res.GroupLabel)
	obs.Add(o, obs.StageGrouping, obs.CtrGroups, int64(len(res.Groups)))
	groupSpan.End()
	return res, nil
}

// stitchGroups merges the shards' boundary-edge lists with union-find,
// attaching the larger root under the smaller so each component's root is
// its minimum ID — the label LabelComponents converges to. The outcome is
// independent of edge order, hence of shard count and scheduling.
func stitchGroups(n int, boundary []bool, shardEdges [][][2]int32) []int {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for _, edges := range shardEdges {
		for _, e := range edges {
			ra, rb := find(e[0]), find(e[1])
			switch {
			case ra == rb:
			case ra < rb:
				parent[rb] = ra
			default:
				parent[ra] = rb
			}
		}
	}
	label := make([]int, n)
	for i := range label {
		if boundary[i] {
			label[i] = int(find(int32(i)))
		} else {
			label[i] = sim.NoGroup
		}
	}
	return label
}
