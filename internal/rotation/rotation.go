// Package rotation implements dynamic diversity: moving-target variant
// rotation DURING a live campaign, on top of the static placement the
// rest of the framework optimizes. The paper deploys its diversified
// configuration once; the dynamic-network-diversity literature (Chen et
// al., "Quantifying Cybersecurity Effectiveness of Dynamic Network
// Diversity") shows that reconfiguring variants while the intruder is
// inside dominates static placement on dwell time and re-infection, at
// a rotation cost the defender must budget — the trade-off Li et al.
// frame for ICS diversification.
//
// A Spec describes one rotation schedule; an Engine executes it inside
// a malware.Campaign through the RotationControl hook, as ordinary
// discrete-event ticks on the campaign clock:
//
//	Periodic  — rotate a batch of nodes every Period hours, round-robin
//	            over the candidate set (unconditional hygiene);
//	Triggered — poll the perceived detection count every Period hours
//	            and rotate only when it grew (reactive eviction);
//	Adaptive  — budget-aware: rotates the most critical nodes first,
//	            speeds its clock up while detections accumulate, backs
//	            off when the network is quiet, and stops for good when
//	            its rotation budget is exhausted.
//
// Candidates are ordered by the shared structural screening surrogate
// (malware.CriticalityScores), so reactive policies evict the attacker
// from choke points first. Every engine draw comes from its own
// per-replication seeded stream (Start mixes the replication seed with
// the spec fingerprint), which keeps outcomes byte-identical across
// worker counts and batch sizes and decorrelated from attack sampling.
package rotation

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"diversify/internal/digest"
	"diversify/internal/exploits"
	"diversify/internal/malware"
	"diversify/internal/rng"
	"diversify/internal/topology"
)

// ErrBadSpec reports an invalid rotation schedule.
var ErrBadSpec = errors.New("rotation: invalid spec")

// Kind selects the rotation policy.
type Kind int

// Rotation policies.
const (
	// Periodic rotates a batch every Period hours unconditionally.
	Periodic Kind = iota + 1
	// Triggered polls every Period hours and rotates only when the
	// perceived detection count grew since the last poll.
	Triggered
	// Adaptive rotates the highest-criticality nodes first under a
	// rotation budget, halving its interval (floor Period/4) while
	// detections accumulate and stretching it (cap Period*4) when quiet.
	Adaptive
)

func (k Kind) String() string {
	switch k {
	case Periodic:
		return "periodic"
	case Triggered:
		return "triggered"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec is one immutable rotation schedule: the policy, its period and
// its batch. Every rotation reimages one node's OS at rotationCost. The
// zero value is invalid; fill at least Kind and call Validate (ParseSpec
// and the optimizer do).
type Spec struct {
	Kind Kind
	// Period is the base interval in hours between rotation waves
	// (Periodic), detection polls (Triggered) or clock adaptations
	// (Adaptive).
	Period float64
	// Batch is how many nodes rotate per wave (default 1).
	Batch int
}

// rotationCost prices one node rotation in cost-model units. The
// schedule's PlannedCost folds into the placement budget; the realized
// spend is reported per replication.
const rotationCost = 1

// withDefaults returns the spec with defaulted knobs filled in.
func (s Spec) withDefaults() Spec {
	if s.Batch <= 0 {
		s.Batch = 1
	}
	return s
}

// Validate checks the spec for usability.
func (s Spec) Validate() error {
	switch s.Kind {
	case Periodic, Triggered, Adaptive:
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrBadSpec, int(s.Kind))
	}
	if s.Period <= 0 || math.IsNaN(s.Period) {
		return fmt.Errorf("%w: period %v", ErrBadSpec, s.Period)
	}
	if s.Batch < 0 {
		return fmt.Errorf("%w: batch %d", ErrBadSpec, s.Batch)
	}
	return nil
}

// Name renders the schedule compactly ("triggered:48x2"); ParseSpec
// accepts the same shape back.
func (s Spec) Name() string {
	s = s.withDefaults()
	name := fmt.Sprintf("%s:%g", s.Kind, s.Period)
	if s.Batch != 1 {
		name += fmt.Sprintf("x%d", s.Batch)
	}
	return name
}

// ParseSpec parses a CLI schedule selector: "kind", "kind:period" or
// "kind:periodxbatch" — e.g. "triggered", "periodic:24",
// "triggered:48x2". An omitted period defaults to 48 hours.
func ParseSpec(sel string) (Spec, error) {
	kindStr, rest, hasRest := strings.Cut(sel, ":")
	var spec Spec
	switch kindStr {
	case "periodic":
		spec.Kind = Periodic
	case "triggered":
		spec.Kind = Triggered
	case "adaptive":
		spec.Kind = Adaptive
	default:
		return Spec{}, fmt.Errorf("%w: unknown policy %q (want periodic, triggered or adaptive)", ErrBadSpec, kindStr)
	}
	spec.Period = 48
	if hasRest && rest == "" {
		return Spec{}, fmt.Errorf("%w: %q has a trailing colon; write %q or %q", ErrBadSpec, sel, kindStr, kindStr+":48")
	}
	periodStr, batchStr, hasBatch := "", "", false
	if hasRest {
		periodStr, batchStr, hasBatch = strings.Cut(rest, "x")
		period, err := strconv.ParseFloat(periodStr, 64)
		if err != nil {
			return Spec{}, fmt.Errorf("%w: period %q is not a number", ErrBadSpec, periodStr)
		}
		spec.Period = period
	}
	if hasBatch {
		batch, err := strconv.Atoi(batchStr)
		if err != nil || batch <= 0 {
			return Spec{}, fmt.Errorf("%w: batch %q is not a positive integer", ErrBadSpec, batchStr)
		}
		spec.Batch = batch
	}
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// PlannedCost is the deterministic rotation spend ceiling over one
// replication horizon — the number the placement optimizer folds into
// its budget, computable without simulating anything. Periodic and
// Triggered price every possible wave at the base period (Triggered
// conservatively assumes each poll fires). Adaptive prices the base
// rate too, and its engine enforces exactly this figure as its spend
// cap, so overclocked bursts borrow from quiet stretches.
func (s Spec) PlannedCost(horizon float64) float64 {
	s = s.withDefaults()
	if horizon <= 0 {
		return 0
	}
	return math.Floor(horizon/s.Period) * float64(s.Batch) * rotationCost
}

// Fingerprint returns a deterministic 64-bit digest of the schedule,
// mixed into candidate fingerprints by the optimizer (so one placement
// paired with two schedules caches as two candidates) and into the
// engine's per-replication seed.
func (s Spec) Fingerprint() uint64 {
	s = s.withDefaults()
	h := digest.New()
	h.U64(uint64(s.Kind))
	h.F64(s.Period)
	h.U64(uint64(s.Batch))
	// The retired downtime, cost, budget, class and seed knobs' fixed
	// values keep their slots, so fingerprints and engine seeds stay put.
	h.F64(0)
	h.F64(rotationCost)
	h.F64(0)
	h.U64(uint64(exploits.ClassOS))
	h.U64(0)
	return h.Sum()
}

// target is one rotation candidate with its structural criticality.
type target struct {
	id    topology.NodeID
	score float64
}

// Engine executes one Spec inside one campaign. An Engine belongs to a
// single campaign (worker) at a time — Start resets every mutable field
// for the next replication, so engines are freely reusable across
// Reset+Run cycles but must never be shared across concurrent workers.
type Engine struct {
	spec   Spec
	specFP uint64
	// nodes is the candidate set ordered by criticality descending (the
	// order reactive policies evict in; Periodic round-robins over it).
	nodes []target
	// pool lists the catalog's OS variants, sorted by ID.
	pool []exploits.VariantID
	// lastRot[i] is the last virtual time nodes[i] rotated (reactive
	// policies enforce a Period cool-down per node).
	lastRot []float64

	r       rng.Rand
	cursor  int
	spent   float64
	budget  float64 // enforced spend cap this replication (Adaptive; 0 = none)
	lastDet int
	period  float64
}

// NewEngine prepares an engine for one (spec, plant, threat) triple:
// candidates are the nodes that carry an OS, ordered by the structural
// surrogate. Unlike the placement optimizer — which excludes corporate
// PCs because hardening the attacker's entry machines is not a defense
// the paper considers — rotation includes them: reimaging an office PC is the cheapest eviction there is, and
// the dynamic-diversity studies rotate the whole host population. All
// allocation happens here; Start and Tick are allocation-free.
func NewEngine(spec Spec, topo *topology.Topology, cat *exploits.Catalog, profile malware.Profile) (*Engine, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	variants := cat.VariantsOf(exploits.ClassOS)
	if len(variants) < 2 {
		return nil, fmt.Errorf("%w: catalog has %d variant(s) of %v — nothing to rotate to", ErrBadSpec, len(variants), exploits.ClassOS)
	}
	e := &Engine{spec: spec, specFP: spec.Fingerprint(), pool: make([]exploits.VariantID, len(variants))}
	for i, v := range variants {
		e.pool[i] = v.ID
	}
	crit := malware.CriticalityScores(topo, profile)
	// Entry nodes get a strong ordering bonus: they are where infected
	// media keep landing, so they are where evictions recover the most
	// dwell — the defender knows the entry kinds (threat intelligence the
	// profile encodes), not the live infection state.
	entry := map[topology.Kind]bool{}
	for _, k := range profile.EntryKinds {
		entry[k] = true
	}
	for _, n := range topo.Nodes() {
		if _, ok := n.Component(exploits.ClassOS); !ok {
			continue
		}
		score := crit[n.ID]
		if entry[n.Kind] {
			score += 2
		}
		e.nodes = append(e.nodes, target{id: n.ID, score: score})
	}
	if len(e.nodes) == 0 {
		return nil, fmt.Errorf("%w: no node carries an OS", ErrBadSpec)
	}
	slices.SortFunc(e.nodes, func(a, b target) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	e.lastRot = make([]float64, len(e.nodes))
	return e, nil
}

// Start implements malware.Rotator: reset all mutable state for the
// replication and schedule the first tick.
func (e *Engine) Start(rc malware.RotationControl, seed uint64) {
	e.r.Seed(seed ^ e.specFP)
	e.cursor = 0
	e.spent = 0
	e.lastDet = 0
	e.period = e.spec.Period
	e.budget = 0
	if e.spec.Kind == Adaptive {
		// The enforced cap matches PlannedCost exactly: the base-rate
		// spend over this replication's horizon.
		e.budget = e.spec.PlannedCost(rc.Horizon())
	}
	for i := range e.lastRot {
		e.lastRot[i] = math.Inf(-1)
	}
	rc.ScheduleTick(e.period)
}

// Tick implements malware.Rotator: one scheduled policy decision.
//
//diversify:det-root policy decisions replay identically under CRN seeding
func (e *Engine) Tick(rc malware.RotationControl) {
	now := rc.Now()
	switch e.spec.Kind {
	case Periodic:
		e.rotateBatch(rc, now)
		rc.ScheduleTick(e.spec.Period)
	case Triggered:
		if det := rc.Detections(); det > e.lastDet {
			e.lastDet = det
			e.rotateBatch(rc, now)
		}
		rc.ScheduleTick(e.spec.Period)
	case Adaptive:
		if det := rc.Detections(); det > e.lastDet {
			e.lastDet = det
			e.period = math.Max(e.spec.Period/4, e.period/2)
		} else {
			e.period = math.Min(e.spec.Period*4, e.period*1.5)
		}
		e.rotateBatch(rc, now)
		if e.budget > 0 && e.budget-e.spent < rotationCost {
			return // budget exhausted for good: stop ticking
		}
		rc.ScheduleTick(e.period)
	}
}

// rotateBatch rotates up to Batch candidate nodes at time now. Nodes
// whose OS is placement-pinned are skipped (their attempt
// still starts a cool-down, so reactive policies do not stall on them);
// the scan gives up after one pass over the candidate set.
func (e *Engine) rotateBatch(rc malware.RotationControl, now float64) {
	rotated := 0
	for tries := 0; rotated < e.spec.Batch && tries < len(e.nodes); tries++ {
		idx := e.nextTarget(now)
		if idx < 0 {
			return
		}
		if e.budget > 0 && e.spent+rotationCost > e.budget {
			return
		}
		if e.rotateNode(rc, idx, now) {
			rotated++
		}
	}
}

// nextTarget selects the next node to rotate: Periodic round-robins the
// cursor; reactive policies take the most critical node outside its
// Period cool-down (so the same choke point is not thrashed every
// trigger while its neighbors stay stale). Returns -1 when no candidate
// is eligible.
func (e *Engine) nextTarget(now float64) int {
	if e.spec.Kind == Periodic {
		idx := e.cursor
		e.cursor = (e.cursor + 1) % len(e.nodes)
		return idx
	}
	for i := range e.nodes {
		if now-e.lastRot[i] >= e.spec.Period {
			return i
		}
	}
	return -1
}

// rotateNode rotates the node's OS to a uniformly drawn different
// variant, billing rotationCost. It reports whether the OS actually
// rotated (a placement-pinned OS refuses); either way the node enters
// its cool-down.
func (e *Engine) rotateNode(rc malware.RotationControl, idx int, now float64) bool {
	e.lastRot[idx] = now
	id := e.nodes[idx].id
	cur, ok := rc.Variant(id, exploits.ClassOS)
	if !ok {
		return false
	}
	// Uniform draw over the pool minus the current variant, without
	// building a filtered slice (Tick stays allocation-free).
	eligible := len(e.pool)
	for _, v := range e.pool {
		if v == cur {
			eligible--
		}
	}
	if eligible == 0 {
		return false
	}
	k := 0
	if eligible > 1 {
		k = e.r.Intn(eligible)
	}
	var next exploits.VariantID
	for _, v := range e.pool {
		if v == cur {
			continue
		}
		if k == 0 {
			next = v
			break
		}
		k--
	}
	if !rc.Rotate(id, exploits.ClassOS, next, rotationCost) {
		return false
	}
	e.spent += rotationCost
	return true
}
