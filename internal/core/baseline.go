package core

import "repro/internal/netgen"

// DegreeBaseline is the natural localized heuristic the paper's UBF is
// implicitly compared against: a node with markedly fewer neighbors than
// average suspects it sits on a boundary, because roughly half of its radio
// ball hangs outside the network. The paper has no prior 3D competitor (it
// is the first 3D boundary-detection work), so this serves as the ablation
// baseline. Like UBF it is fully localized — a node needs only its own
// degree plus the (flooded or configured) network average. Node i is
// flagged when deg(i) < degreeFraction·avgDeg.
func DegreeBaseline(net *netgen.Network) ([]bool, error) {
	if net == nil {
		return nil, ErrNoNetwork
	}
	avg := net.G.AvgDegree()
	out := make([]bool, net.Len())
	for i := range out {
		out[i] = float64(net.G.Degree(i)) < degreeFraction*avg
	}
	return out, nil
}
