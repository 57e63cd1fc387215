package mesh

// The incremental surface engine: a per-session cache of constructed group
// surfaces that survives join/leave/move/crash deltas and rebuilds only
// the groups a delta actually dirtied.
//
// Soundness rests on one structural fact about the pipeline: a group's
// surface (steps I–V, Sec. III) is a pure function of the group's member
// list and the member-to-member edges E(S) — every election, association,
// path, and flip reads hop counts and node-ID comparisons over the induced
// member subgraph and nothing else. Positions enter only through the
// separate smoothing pass (RefinedPositions), which callers re-run per
// serve. A delta at node c changes only edges incident to c, so E(S) for a
// cached member set S changes exactly when c ∈ S and some peer of the
// changed edges is also in S. That is the invalidation rule Invalidate
// applies; because it runs on *every* delta, any entry still cached when
// its member set reappears has had no intra-set edge change since it was
// built, and is served verbatim. (Euclidean form of the same locality
// argument: a delta at position p only touches edges inside the ball of
// one radio range R around p — the dirty ball — so only groups
// intersecting that ball can be invalidated; DESIGN.md §15 derives this.)
//
// Cache-miss rebuilds run on the same compact per-group kernel as Build:
// the group's induced subgraph is re-indexed to [0, |S|) by the monotone
// (ascending) member renaming, built straight into a CSR, and the finished
// surface is renamed back. Every mesh operation is order- and
// comparison-based — ascending greedy election, min-ID tie-breaks,
// normalized edges, lexicographic sorts — and a monotone renaming
// preserves all comparisons, so the compact-space surface renames back to
// exactly the surface the whole-network reference implementation computes
// (the differential suites enforce this). The compaction is what makes
// repairs cheap: BFS arrays, shortest-path trees, and scratch all scale
// with the group, not the network.

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/obs"
)

// Topology is the live adjacency view the incremental engine rebuilds
// dirty groups from: a stable-ID universe of Len() nodes with ascending
// neighbor rows. core.Incremental satisfies it directly.
type Topology = graph.Rows

// maxCachedSurfaces caps the per-engine cache; beyond it the
// least-recently-served entry is evicted. Sessions rarely hold more than a
// handful of live groups, so the cap only matters when churn keeps
// renaming groups — and then old member lists can never match again
// anyway.
const maxCachedSurfaces = 64

// meshEntry is one cached group surface, keyed by its exact member list.
type meshEntry struct {
	hash    uint64         // FNV-1a over the member list (fast filter)
	members []int          // ascending stable IDs
	set     *graph.NodeSet // the same members, as a bitset (invalidation)
	surf    *Surface       // stable-ID surface
	stamp   uint64         // last-served clock, for eviction
}

// IncrementalStats reports cache effectiveness counters.
type IncrementalStats struct {
	// Hits and Misses count group serves answered from the cache vs
	// rebuilt.
	Hits, Misses uint64
	// Entries is the current number of cached surfaces.
	Entries int
}

// Incremental is a per-session surface engine: Surfaces serves the current
// groups' meshes, reusing every cached surface whose member set and
// intra-group adjacency are unchanged, and Invalidate — called once per
// topology delta — evicts exactly the entries the delta dirtied. Not safe
// for concurrent use; a server serializes per session, like
// core.Incremental.
type Incremental struct {
	cfg    Config
	clock  uint64
	hits   uint64
	misses uint64

	entries []*meshEntry

	// Rebuild scratch, reused across misses. The compact CSR aliases it
	// only during a rebuild and is discarded before the next one starts,
	// so reuse is safe.
	compactor groupCompactor
}

// NewIncremental returns an empty engine building surfaces under cfg
// (defaults applied as in Build).
func NewIncremental(cfg Config) *Incremental {
	return &Incremental{cfg: cfg.withDefaults()}
}

// Stats reports the engine's cache counters.
func (e *Incremental) Stats() IncrementalStats {
	return IncrementalStats{Hits: e.hits, Misses: e.misses, Entries: len(e.entries)}
}

// Invalidate absorbs one topology delta: node is the changed stable ID and
// peers the nodes whose edge to it appeared or disappeared
// (core.Incremental.LastTopology provides exactly this). Every cached
// surface whose member set contains the node *and* at least one changed
// peer had an intra-group edge change and is evicted; all others remain
// valid — including groups the node belongs to when the change only
// touched edges leaving the group. Allocation-free; call it after every
// applied delta, cheap no-op when nothing matches.
func (e *Incremental) Invalidate(o obs.Observer, node int, peers []int32) {
	w := 0
	for _, ent := range e.entries {
		if ent.set.Has(node) && anyIn(ent.set, peers) {
			obs.Add(o, obs.StageMeshInc, obs.CtrSPTInvalidated, int64(len(ent.surf.Landmarks.IDs)))
			continue
		}
		e.entries[w] = ent
		w++
	}
	for i := w; i < len(e.entries); i++ {
		e.entries[i] = nil
	}
	e.entries = e.entries[:w]
}

// growUniverse pads a cached surface's universe-sized association tables
// up to the current stable-ID universe — joins grow it (never shrink), and
// a from-scratch build over the larger universe holds exactly the
// NoLandmark/Unreachable defaults at the new indices, so padding keeps
// cached serves bit-identical. No growth, no allocation.
func growUniverse(s *Surface, n int) {
	for len(s.Landmarks.Assoc) < n {
		s.Landmarks.Assoc = append(s.Landmarks.Assoc, NoLandmark)
		s.Landmarks.Hops = append(s.Landmarks.Hops, graph.Unreachable)
	}
}

func anyIn(set *graph.NodeSet, peers []int32) bool {
	for _, p := range peers {
		if set.Has(int(p)) {
			return true
		}
	}
	return false
}

// Surfaces serves one surface per boundary group, appending to dst (pass
// dst[:0] to reuse the backing array across serves). Member lists must be
// ascending stable IDs (core.Incremental.GroupsView provides this).
// Cached groups are returned as-is — a fully-hit serve allocates nothing
// beyond dst growth — and dirty groups are rebuilt in compact ID space and
// cached. Returned surfaces are shared with the cache: callers must not
// mutate them, and a surface stays valid after later deltas (eviction only
// drops the cache's reference).
//
// The serve runs under a StageMeshInc span carrying mesh_repairs (groups
// rebuilt), dirty_patch_nodes (their total size), and — via Invalidate —
// spt_invalidated.
func (e *Incremental) Surfaces(ctx context.Context, o obs.Observer, topo Topology, groups [][]int, dst []*Surface) ([]*Surface, error) {
	span := obs.Start(o, obs.StageMeshInc)
	defer span.End()
	for gi, group := range groups {
		if err := ctx.Err(); err != nil {
			return dst, err
		}
		if len(group) == 0 {
			return dst, fmt.Errorf("group %d: %w", gi, ErrEmptyGroup)
		}
		e.clock++
		if ent := e.lookup(group); ent != nil {
			ent.stamp = e.clock
			e.hits++
			growUniverse(ent.surf, topo.Len())
			dst = append(dst, ent.surf)
			continue
		}
		e.misses++
		surf, err := buildGroup(ctx, o, &e.compactor, topo.Len(), group, topo.Neighbors, e.cfg)
		if err != nil {
			return dst, fmt.Errorf("group %d: %w", gi, err)
		}
		obs.Add(o, obs.StageMeshInc, obs.CtrMeshRepairs, 1)
		obs.Add(o, obs.StageMeshInc, obs.CtrDirtyPatch, int64(len(group)))
		e.insert(group, topo.Len(), surf)
		dst = append(dst, surf)
	}
	return dst, nil
}

// lookup finds the cached entry whose member list equals group exactly.
func (e *Incremental) lookup(group []int) *meshEntry {
	h := memberHash(group)
	for _, ent := range e.entries {
		if ent.hash != h || len(ent.members) != len(group) {
			continue
		}
		match := true
		for i, v := range ent.members {
			if v != group[i] {
				match = false
				break
			}
		}
		if match {
			return ent
		}
	}
	return nil
}

func memberHash(group []int) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range group {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// insert caches a rebuilt surface, evicting the least-recently-served
// entry past the cap.
func (e *Incremental) insert(group []int, universe int, surf *Surface) {
	set := graph.NewNodeSet(universe)
	for _, v := range group {
		set.Add(v)
	}
	ent := &meshEntry{
		hash:    memberHash(group),
		members: append([]int(nil), group...),
		set:     set,
		surf:    surf,
		stamp:   e.clock,
	}
	if len(e.entries) >= maxCachedSurfaces {
		oldest := 0
		for i, x := range e.entries {
			if x.stamp < e.entries[oldest].stamp {
				oldest = i
			}
		}
		e.entries[oldest] = e.entries[len(e.entries)-1]
		e.entries[len(e.entries)-1] = nil
		e.entries = e.entries[:len(e.entries)-1]
	}
	e.entries = append(e.entries, ent)
}

// renameSurface maps a compact-space surface back to stable IDs in place.
// The member renaming is monotone, so normalized edge endpoints, ascending
// face triples, and every sorted order survive the renaming untouched.
func renameSurface(s *Surface, members []int, universe int) {
	s.Group = append(s.Group[:0:0], members...)
	renameLandmarks(s.Landmarks, members, universe)
	renameEdges(s.CDG, members)
	renameEdges(s.CDM, members)
	renameEdges(s.Edges, members)
	for i := range s.Faces {
		f := &s.Faces[i]
		f[0], f[1], f[2] = members[f[0]], members[f[1]], members[f[2]]
	}
	paths := make(map[Edge][]int, len(s.Paths))
	for e, p := range s.Paths {
		for i := range p {
			p[i] = members[p[i]]
		}
		paths[Edge{members[e[0]], members[e[1]]}] = p
	}
	s.Paths = paths
}

func renameEdges(edges []Edge, members []int) {
	for i := range edges {
		edges[i][0] = members[edges[i][0]]
		edges[i][1] = members[edges[i][1]]
	}
}
