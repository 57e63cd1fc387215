package core

// Sharded scheduling of the per-node stages. Under Config.Shards > 1 the
// node set is cut into spatial shards (internal/partition over
// geom.PointGrid), each shard materializes a compacted struct-of-arrays
// view of its owned nodes plus a ghost halo, and frames (stage 1) and Unit
// Ball Fitting (stage 2) run shard-parallel over those views. Sharding
// schedules those two stages and nothing more: IFF and grouping are
// network-wide floods and run once, in filterAndGroup, exactly as on the
// unsharded path. A sharded Result therefore equals the unsharded one in
// every field, message and fault counters included, and Async and Faults
// are honoured as usual.
//
// Bit-identity of the per-node stages rests on three facts, spelled out
// here because every test in shard_differential_test.go enforces them:
//
//  1. Locality (the paper's Sec. II): a node's UBF verdict reads its
//     scope-hop neighborhood at most (under CoordsMDS, the frames of its
//     one-hop neighbors, each built from that neighbor's one-hop
//     neighborhood). A view at halo depth D = scope hops therefore contains
//     every node any owned-node computation dereferences.
//  2. Edge completeness: a view keeps exactly the global adjacency
//     restricted to its node set, so any edge whose endpoints are both in
//     the view survives compaction — and every node at view depth d < D has
//     its *entire* global row present (its neighbors sit at depth ≤ d+1).
//     Neighborhood reads that only expand nodes below the halo boundary
//     behave exactly as on the full graph.
//  3. Monotone renaming: view nodes are sorted by global ID, so local IDs
//     are an order-preserving relabeling. Every order the pipeline's
//     kernels depend on — adjacency scan order, two-hop first-appearance
//     order, MDS member order — is preserved, and with it every tie-break,
//     work counter, and floating-point operation sequence.

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/partition/shard"
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

// shardHaloDepth returns the ghost-halo depth a configuration needs: the
// emptiness-knowledge scope in hops.
func shardHaloDepth(cfg Config) int {
	if cfg.Scope == ScopeTwoHop {
		return 2
	}
	return 1
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

// shardedNodeStages is the Config.Shards > 1 schedule of stages 1 and 2:
// it partitions the volume, builds every shard's view and, under
// CoordsMDS, the frames each view needs, then returns the loop that fits
// every shard's owned nodes. cfg carries defaults.
func shardedNodeStages(ctx context.Context, o obs.Observer, tab *NodeTable, cfg Config, res *Result) (nodeLoop, error) {
	// Partition the volume and materialize every shard's view. Empty
	// shards (more shards than populated grid regions) stay nil.
	partSpan := obs.Start(o, obs.StagePartition)
	shd, err := shard.Spatial(tab.Pos, cfg.Shards)
	if err != nil {
		partSpan.End()
		return nil, err
	}
	depthHops := shardHaloDepth(cfg)
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
		res.CoordError = make([]float64, tab.Len())
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
			for l, g := range v.glob {
				if err := ctx.Err(); err != nil {
					return err
				}
				if v.depth[l] > frameDepth {
					continue
				}
				var rmsd *float64
				if v.depth[l] == 0 {
					rmsd = &res.CoordError[g]
				}
				if err := fillFrame(&v.tab, cfg, v.frames, l, rmsd); err != nil {
					return fmt.Errorf("node %d frame: %w", g, err)
				}
			}
			return nil
		})
		framesSpan.End()
		if err != nil {
			return nil, err
		}
	}

	// Stage 2 runs per shard over its owned nodes. Worker scratch is
	// shared across shards; the epoch-stamped buffers re-arm per node
	// regardless of the view size changing underneath them.
	return func(fit nodeFit) error {
		return par.For(cfg.Shards, cfg.Workers, func(w, s int) error {
			v := views[s]
			if v == nil {
				return nil
			}
			for _, l := range v.owned {
				if err := ctx.Err(); err != nil {
					return err
				}
				fit(w, &v.tab, v.frames, int(l), int(v.glob[l]))
			}
			return nil
		})
	}, nil
}
