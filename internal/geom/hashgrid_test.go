package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// nearBrute lists the live IDs within r of p, ascending.
func nearBrute(pos []Vec3, live []bool, p Vec3, r float64) []int32 {
	var out []int32
	for id, q := range pos {
		if live[id] && q.Dist2(p) <= r*r {
			out = append(out, int32(id))
		}
	}
	return out
}

// TestHashGridMatchesBruteForce drives a grid through inserts, removals
// and moves, and checks every range query against a brute-force scan, at
// radii below, at and above the cell size and around points at negative
// coordinates.
func TestHashGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const cell = 0.7
	pos := randPoints(rng, 300, 6)
	live := make([]bool, len(pos))
	g := NewHashGrid(cell, len(pos))
	for id, p := range pos {
		g.Insert(int32(id), p)
		live[id] = true
	}
	check := func(step string) {
		t.Helper()
		for q := 0; q < 40; q++ {
			p := pos[rng.Intn(len(pos))]
			if q%2 == 1 {
				p = randPoints(rng, 1, 7)[0]
			}
			for _, r := range []float64{0.3, cell, 1.9} {
				var got []int32
				g.VisitNear(pos, p, r, func(id int32) { got = append(got, id) })
				slices.Sort(got)
				if want := nearBrute(pos, live, p, r); !slices.Equal(got, want) {
					t.Fatalf("%s: near %v r=%v: grid %v, brute %v", step, p, r, got, want)
				}
			}
		}
	}
	check("built")
	for id := 0; id < len(pos); id += 3 {
		g.Remove(int32(id), pos[id])
		live[id] = false
	}
	g.Remove(1, V(100, 100, 100)) // absent from that cell: a no-op
	check("after removals")
	for id := 1; id < len(pos); id += 3 {
		g.Remove(int32(id), pos[id])
		pos[id] = randPoints(rng, 1, 6)[0]
		g.Insert(int32(id), pos[id])
	}
	check("after moves")
}
