// Hardened (acknowledged, retransmitting) variants of the paper's two
// flooding primitives. The plain primitives assume lossless delivery;
// these survive a FaultPlan: every data packet is acknowledged by its
// receiver, and the sender retransmits unacknowledged packets on an
// acknowledgment-timeout timer, up to a bounded budget. Both protocols
// process data idempotently (max-TTL for the flood, min for the labels),
// so the duplicates that retransmission and the fault layer introduce
// are harmless.
//
// Exactness guarantee: under a plan whose MaxDropsPerLink is K and a
// Budget ≥ K, every committed packet is delivered at least once (K+1
// transmissions cannot all be dropped on a link that loses at most K
// messages), so the hardened flood counts and labels equal the lossless
// synchronous ones — the paper's delay-independence claim extended to
// bounded loss. Without the per-link cap the guarantee is probabilistic
// and the Abandoned counter reports packets whose budget ran out.
package sim

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/obs"
)

// ReliableOptions tunes the hardened protocol variants.
type ReliableOptions struct {
	// Budget is the number of retransmissions allowed per packet after
	// the initial send. Zero means 3; negative means none.
	Budget int
}

// retxParams are the resolved retransmission parameters.
type retxParams struct {
	budget int
	// resendAfter is how long (in steps: rounds under the synchronous
	// kernel, MaxDelay units under the asynchronous one) a sender waits
	// for an acknowledgment before retransmitting.
	resendAfter int
}

func (o ReliableOptions) resolve(plan *FaultPlan) retxParams {
	p := retxParams{budget: o.Budget}
	if p.budget == 0 {
		p.budget = 3
	}
	if p.budget < 0 {
		p.budget = 0
	}
	// A data/ack round trip takes 2 steps plus twice the fault layer's
	// extra delay bound.
	extra := 0
	if plan != nil && plan.Config().DelayRate > 0 {
		extra = plan.Config().MaxExtraDelay
	}
	p.resendAfter = 3 + 2*extra
	return p
}

// retxEntry is one unacknowledged packet a sender is responsible for.
type retxEntry struct {
	val      int // remaining TTL (flood) or label value (grouping)
	attempts int
	deadline float64
}

// retxKey identifies an outstanding packet: the destination plus the
// flood origin (0 for the label protocol, which has one stream per link).
type retxKey struct{ to, origin int }

// retxState is the per-node retransmission bookkeeping shared by both
// hardened protocols.
type retxState struct {
	opt     retxParams
	plan    *FaultPlan
	pr      Probe          // flight-recorder probe for node transitions
	now     func() float64 // current step in timer units
	pending []map[retxKey]*retxEntry
	armed   []bool
}

func newRetxState(n int, plan *FaultPlan, opt retxParams) *retxState {
	return &retxState{
		opt:     opt,
		plan:    plan,
		pending: make([]map[retxKey]*retxEntry, n),
		armed:   make([]bool, n),
	}
}

// commit registers (or upgrades) an outstanding packet and performs its
// initial transmission. better reports whether a new value supersedes an
// already-pending one.
func (s *retxState) commit(id int, key retxKey, val int, better func(new, old int) bool, send func()) {
	if s.pending[id] == nil {
		s.pending[id] = make(map[retxKey]*retxEntry)
	}
	if e, ok := s.pending[id][key]; ok && !better(val, e.val) {
		return // an at-least-as-strong packet is already in flight
	}
	s.pending[id][key] = &retxEntry{val: val, deadline: s.now() + float64(s.opt.resendAfter)}
	send()
}

// settle clears an outstanding packet once an acknowledgment certifies
// the receiver holds a value at least as strong.
func (s *retxState) settle(id int, key retxKey, ackVal int, satisfies func(ack, pending int) bool) {
	if e, ok := s.pending[id][key]; ok && satisfies(ackVal, e.val) {
		delete(s.pending[id], key)
	}
}

// arm schedules the node's retransmission timer if it is not already
// running.
func (s *retxState) arm(id int, out interface{ SetTimer(int) }) {
	if !s.armed[id] && len(s.pending[id]) > 0 {
		s.armed[id] = true
		out.SetTimer(s.opt.resendAfter)
	}
}

// onTimer retransmits every due packet (dropping those whose budget is
// exhausted) and re-arms the timer while packets remain. resend performs
// the actual transmission for one packet.
func (s *retxState) onTimer(id int, out interface{ SetTimer(int) }, resend func(key retxKey, val int)) {
	s.armed[id] = false
	if len(s.pending[id]) == 0 {
		return
	}
	now := s.now()
	keys := make([]retxKey, 0, len(s.pending[id]))
	for k := range s.pending[id] {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].to != keys[b].to {
			return keys[a].to < keys[b].to
		}
		return keys[a].origin < keys[b].origin
	})
	next := math.MaxFloat64
	for _, key := range keys {
		e := s.pending[id][key]
		if e.deadline > now+1e-9 {
			if e.deadline < next {
				next = e.deadline
			}
			continue
		}
		if e.attempts >= s.opt.budget {
			delete(s.pending[id], key)
			s.plan.noteAbandoned()
			continue
		}
		e.attempts++
		e.deadline = now + float64(s.opt.resendAfter)
		s.plan.noteRetransmit()
		resend(key, e.val)
		if e.deadline < next {
			next = e.deadline
		}
	}
	if len(s.pending[id]) > 0 {
		d := int(math.Ceil(next - now - 1e-9))
		if d < 1 {
			d = 1
		}
		s.armed[id] = true
		out.SetTimer(d)
	}
}

// ---------------------------------------------------------------------
// Reliable flood counting (hardened IFF).

// relFloodMsg is the wire format: data carries (origin, remaining TTL);
// an ack certifies "I know origin with remaining TTL ≥ ttl".
type relFloodMsg struct {
	ack    bool
	origin int
	ttl    int
}

type relFlood struct {
	*retxState
	ttl0 int
	best []map[int]int // best[node][origin] = largest TTL adopted
}

func newRelFlood(n, ttl int, plan *FaultPlan, opt retxParams) *relFlood {
	return &relFlood{retxState: newRetxState(n, plan, opt), ttl0: ttl, best: make([]map[int]int, n)}
}

func (s *relFlood) offer(id, to, origin, ttl int, out *Outbox[relFloodMsg]) {
	s.commit(id, retxKey{to: to, origin: origin}, ttl,
		func(new, old int) bool { return new > old },
		func() { out.Send(to, relFloodMsg{origin: origin, ttl: ttl}) })
	s.arm(id, out)
}

func (s *relFlood) forward(id, origin, ttl int, out *Outbox[relFloodMsg]) {
	if ttl <= 0 {
		return
	}
	for _, j := range out.neighbors {
		if out.participates(j) {
			s.offer(id, j, origin, ttl-1, out)
		}
	}
}

func (s *relFlood) init(id int, out *Outbox[relFloodMsg]) {
	s.best[id] = map[int]int{id: s.ttl0}
	s.forward(id, id, s.ttl0, out)
}

func (s *relFlood) onMsg(id int, env Envelope[relFloodMsg], out *Outbox[relFloodMsg]) {
	m := env.Msg
	if m.ack {
		s.plan.noteAck()
		s.settle(id, retxKey{to: env.From, origin: m.origin}, m.ttl,
			func(ack, pending int) bool { return ack >= pending })
		return
	}
	prev, seen := s.best[id][m.origin]
	if !seen || m.ttl > prev {
		s.best[id][m.origin] = m.ttl
		s.forward(id, m.origin, m.ttl, out)
	}
	// Acknowledge with the strongest TTL known so the sender's pending
	// entry clears even when a fresher copy arrived first.
	out.Send(env.From, relFloodMsg{ack: true, origin: m.origin, ttl: s.best[id][m.origin]})
}

func (s *relFlood) timer(id int, out *Outbox[relFloodMsg]) {
	s.retxState.onTimer(id, out, func(key retxKey, val int) {
		out.Send(key.to, relFloodMsg{origin: key.origin, ttl: val})
	})
}

func (s *relFlood) counts(member []bool) []int {
	counts := make([]int, len(s.best))
	for i, m := range s.best {
		if member[i] {
			counts[i] = len(m)
		}
	}
	return counts
}

// relFloodMaxRounds bounds a hardened flood generously: ttl hops, each
// taking at most a full retransmission schedule.
func relFloodMaxRounds(n, ttl int, opt retxParams) int {
	return (ttl+2)*(opt.budget+2)*(opt.resendAfter+2) + n + 4
}

// ReliableFloodCount is FloodCount hardened against a fault plan: the
// TTL-bounded IFF flood with per-packet acknowledgment and bounded
// retransmission, run on the synchronous kernel. A nil plan degrades to
// an acknowledged (but lossless) flood with the same counts as
// FloodCount. Retransmit/ack/abandon counters accumulate into the plan
// and are reported in Result.Faults.
func ReliableFloodCount(g *graph.Graph, member []bool, ttl int, plan *FaultPlan, opt ReliableOptions, pr Probe) ([]int, Result, error) {
	p := opt.resolve(plan)
	s := newRelFlood(g.Len(), ttl, plan, p)
	s.pr = pr
	k := &Kernel[relFloodMsg]{
		G:            g,
		Participates: graph.InSet(member),
		Faults:       plan,
		MaxRounds:    relFloodMaxRounds(g.Len(), ttl, p),
		Obs:          pr.Obs,
		ObsStage:     pr.Stage,
		Init:         s.init,
		OnReceive: func(id int, inbox []Envelope[relFloodMsg], out *Outbox[relFloodMsg]) {
			for _, env := range inbox {
				s.onMsg(id, env, out)
			}
		},
		OnTimer: s.timer,
	}
	s.now = func() float64 { return float64(k.Round()) }
	res, err := k.Run()
	if err != nil {
		return nil, res, err
	}
	return s.counts(member), res, nil
}

// AsyncReliableFloodCount is ReliableFloodCount on the asynchronous
// kernel (per-message random delays seeded by seed).
func AsyncReliableFloodCount(g *graph.Graph, member []bool, ttl int, seed int64, plan *FaultPlan, opt ReliableOptions, pr Probe) ([]int, AsyncResult, error) {
	p := opt.resolve(plan)
	s := newRelFlood(g.Len(), ttl, plan, p)
	s.pr = pr
	k := &AsyncKernel[relFloodMsg]{
		G:            g,
		Participates: graph.InSet(member),
		Seed:         seed,
		Faults:       plan,
		MaxEvents:    4000 * g.Len() * (p.budget + 2),
		Obs:          pr.Obs,
		ObsStage:     pr.Stage,
		Init:         s.init,
		OnMessage:    s.onMsg,
		OnTimer:      s.timer,
	}
	// MaxDelay is 1, so virtual time and timer units coincide.
	s.now = func() float64 { return k.Now() }
	res, err := k.Run()
	if err != nil {
		return nil, res, err
	}
	return s.counts(member), res, nil
}

// ---------------------------------------------------------------------
// Reliable label propagation (hardened grouping).

// relLabelMsg is the wire format: data offers a label; an ack certifies
// "my label is ≤ label".
type relLabelMsg struct {
	ack   bool
	label int
}

type relLabel struct {
	*retxState
	label []int
}

func newRelLabel(n int, plan *FaultPlan, opt retxParams) *relLabel {
	s := &relLabel{retxState: newRetxState(n, plan, opt), label: make([]int, n)}
	for i := range s.label {
		s.label[i] = NoGroup
	}
	return s
}

func (s *relLabel) offer(id, to, label int, out *Outbox[relLabelMsg]) {
	s.commit(id, retxKey{to: to}, label,
		func(new, old int) bool { return new < old },
		func() { out.Send(to, relLabelMsg{label: label}) })
	s.arm(id, out)
}

func (s *relLabel) spread(id int, out *Outbox[relLabelMsg]) {
	for _, j := range out.neighbors {
		if out.participates(j) {
			s.offer(id, j, s.label[id], out)
		}
	}
}

func (s *relLabel) init(id int, out *Outbox[relLabelMsg]) {
	s.label[id] = id
	s.spread(id, out)
}

func (s *relLabel) onMsg(id int, env Envelope[relLabelMsg], out *Outbox[relLabelMsg]) {
	m := env.Msg
	if m.ack {
		s.plan.noteAck()
		s.settle(id, retxKey{to: env.From}, m.label,
			func(ack, pending int) bool { return ack <= pending })
		return
	}
	if m.label < s.label[id] {
		s.label[id] = m.label
		obs.NodeTransition(s.pr.Obs, s.pr.Stage, obs.TransLabelAdopt, id, int64(m.label))
		s.spread(id, out)
	}
	out.Send(env.From, relLabelMsg{ack: true, label: s.label[id]})
}

func (s *relLabel) timer(id int, out *Outbox[relLabelMsg]) {
	s.retxState.onTimer(id, out, func(key retxKey, val int) {
		out.Send(key.to, relLabelMsg{label: val})
	})
}

// ReliableLabelComponents is LabelComponents hardened against a fault
// plan: min-label propagation with per-packet acknowledgment and bounded
// retransmission on the synchronous kernel. Idempotent by construction —
// duplicated or stale offers never move a label upward.
func ReliableLabelComponents(g *graph.Graph, member []bool, plan *FaultPlan, opt ReliableOptions, pr Probe) ([]int, Result, error) {
	p := opt.resolve(plan)
	n := g.Len()
	s := newRelLabel(n, plan, p)
	s.pr = pr
	k := &Kernel[relLabelMsg]{
		G:            g,
		Participates: graph.InSet(member),
		Faults:       plan,
		MaxRounds:    (n + 4) * (p.budget + 2) * (p.resendAfter + 2),
		Obs:          pr.Obs,
		ObsStage:     pr.Stage,
		Init:         s.init,
		OnReceive: func(id int, inbox []Envelope[relLabelMsg], out *Outbox[relLabelMsg]) {
			for _, env := range inbox {
				s.onMsg(id, env, out)
			}
		},
		OnTimer: s.timer,
	}
	s.now = func() float64 { return float64(k.Round()) }
	res, err := k.Run()
	if err != nil {
		return nil, res, err
	}
	return s.label, res, nil
}

// AsyncReliableLabelComponents is ReliableLabelComponents on the
// asynchronous kernel.
func AsyncReliableLabelComponents(g *graph.Graph, member []bool, seed int64, plan *FaultPlan, opt ReliableOptions, pr Probe) ([]int, AsyncResult, error) {
	p := opt.resolve(plan)
	s := newRelLabel(g.Len(), plan, p)
	s.pr = pr
	k := &AsyncKernel[relLabelMsg]{
		G:            g,
		Participates: graph.InSet(member),
		Seed:         seed,
		Faults:       plan,
		MaxEvents:    4000 * g.Len() * (p.budget + 2),
		Obs:          pr.Obs,
		ObsStage:     pr.Stage,
		Init:         s.init,
		OnMessage:    s.onMsg,
		OnTimer:      s.timer,
	}
	s.now = func() float64 { return k.Now() }
	res, err := k.Run()
	if err != nil {
		return nil, res, err
	}
	return s.label, res, nil
}
