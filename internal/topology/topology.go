// Package topology models the structure of a monitoring-and-control
// system: nodes (HMIs, engineering workstations, historians, PLCs,
// sensors, actuators), the zones they live in (corporate, control, field,
// safety), and the links a threat can propagate over (LAN, fieldbus,
// serial, sneakernet).
//
// Beyond bookkeeping it provides the graph analyses the framework's
// "strategic placement" policy relies on: BFS reachability per vector,
// shortest attack paths, and articulation-point computation (the cut
// nodes whose hardening disconnects attack paths — the concrete meaning
// of the paper's "small, strategically distributed, number of highly
// attack-resilient components").
//
// The graph is build-once, read-many: construction (AddNode/Connect) is
// sequential, and the first read query seals the topology into a
// CSR-style layout — one sorted neighbor slab per node plus per-vector
// filtered views — so Neighbors/NeighborsByVector are zero-allocation
// slice returns and safe to call from concurrent Monte-Carlo workers.
// Mutating the graph after a read invalidates the sealed layout; the
// next read rebuilds it.
package topology

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"diversify/internal/digest"
	"diversify/internal/exploits"
)

// ErrUnknownNode reports a reference to an undeclared node.
var ErrUnknownNode = errors.New("topology: unknown node")

// NodeID identifies a node within its topology.
type NodeID int

// Kind is a node's functional role.
type Kind int

// Node kinds found in a SCADA/monitoring system.
const (
	KindHMI Kind = iota + 1
	KindEngWorkstation
	KindHistorian
	KindPLC
	KindSensor
	KindActuator
	KindFirewall
	KindGateway
	KindCorporatePC
)

var kindNames = map[Kind]string{
	KindHMI:            "HMI",
	KindEngWorkstation: "EngWorkstation",
	KindHistorian:      "Historian",
	KindPLC:            "PLC",
	KindSensor:         "Sensor",
	KindActuator:       "Actuator",
	KindFirewall:       "Firewall",
	KindGateway:        "Gateway",
	KindCorporatePC:    "CorporatePC",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Zone is a network segment with a common trust level.
type Zone int

// Standard zones, outermost first.
const (
	ZoneCorporate Zone = iota + 1
	ZoneControl
	ZoneField
	ZoneSafety
)

var zoneNames = map[Zone]string{
	ZoneCorporate: "corporate",
	ZoneControl:   "control",
	ZoneField:     "field",
	ZoneSafety:    "safety",
}

func (z Zone) String() string {
	if s, ok := zoneNames[z]; ok {
		return s
	}
	return fmt.Sprintf("Zone(%d)", int(z))
}

// Medium is a link's physical/logical transport.
type Medium int

// Link media. Sneakernet models removable-media movement between nodes
// (Stuxnet's USB vector); it is traversable only by VectorUSB.
const (
	MediumLAN Medium = iota + 1
	MediumFieldbus
	MediumSerial
	MediumSneakernet
)

var mediumNames = map[Medium]string{
	MediumLAN:        "lan",
	MediumFieldbus:   "fieldbus",
	MediumSerial:     "serial",
	MediumSneakernet: "sneakernet",
}

func (m Medium) String() string {
	if s, ok := mediumNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Medium(%d)", int(m))
}

// Carries reports whether a link medium can carry an attack with the given
// vector: remote and adjacent exploits need a network medium; USB needs a
// sneakernet edge. Local vectors never traverse links.
func (m Medium) Carries(v exploits.Vector) bool {
	switch v {
	case exploits.VectorRemote, exploits.VectorAdjacent:
		return m == MediumLAN || m == MediumFieldbus || m == MediumSerial
	case exploits.VectorUSB:
		return m == MediumSneakernet
	default:
		return false
	}
}

// Node is one system element. Components lists each diversifiable class
// the node carries with the concrete variant installed, ascending by
// class with at most one entry per class (the diversity configuration
// overlays these defaults). The slice is shared; treat as read-only.
type Node struct {
	ID         NodeID
	Name       string
	Kind       Kind
	Zone       Zone
	Components []Component
}

// Component is one class a node carries and the variant installed for it.
type Component struct {
	Class   exploits.Class
	Variant exploits.VariantID
}

// Component returns the variant the node carries for class c.
func (n *Node) Component(c exploits.Class) (exploits.VariantID, bool) {
	for _, comp := range n.Components {
		if comp.Class == c {
			return comp.Variant, true
		}
	}
	return "", false
}

// Link is an undirected edge. Firewalled links carry the variant of the
// filtering device; an empty VariantID means unfiltered.
type Link struct {
	A, B     NodeID
	Medium   Medium
	Firewall exploits.VariantID
}

// Topology is the system graph. Build with AddNode/Connect; the structure
// is append-only (diversity experiments overlay component assignments
// rather than mutating the graph). Construction is not safe for
// concurrent use; once built, all read queries are.
type Topology struct {
	nodes []Node
	links []Link
	adj   [][]int32 // node → indices into links

	sealMu sync.Mutex
	sealed atomic.Pointer[sealedGraph]
}

// sealedGraph is the read-optimized CSR layout built lazily on first
// query: the full sorted neighbor slab, one filtered view per attack
// vector (derived from Medium.Carries, the single source of truth for
// traversability), and the kind index. It is immutable once published.
type sealedGraph struct {
	all    neighborView
	byVec  []neighborView // indexed by exploits.Vector
	byKind map[Kind][]NodeID
	// defaults tallies the default variants per class (see DefaultTally).
	defaults []DefaultCount
}

// neighborView is one CSR adjacency: node i's neighbors occupy
// slab[off[i]:off[i+1]], sorted by neighbor node ID.
type neighborView struct {
	off  []int32
	slab []Neighbor
}

// of returns node id's span with a full slice expression, so an append by
// a misbehaving caller reallocates instead of clobbering the next span.
func (v neighborView) of(id NodeID) []Neighbor {
	lo, hi := v.off[id], v.off[id+1]
	return v.slab[lo:hi:hi]
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{}
}

// AddNode declares a node and returns its ID. The components map is
// copied into the node's class-sorted Components list; this is the one
// place a node's classes are ordered.
func (t *Topology) AddNode(name string, kind Kind, zone Zone, components map[exploits.Class]exploits.VariantID) NodeID {
	id := NodeID(len(t.nodes))
	comp := make([]Component, 0, len(components))
	for c, v := range components {
		comp = append(comp, Component{Class: c, Variant: v})
	}
	slices.SortFunc(comp, func(a, b Component) int { return cmp.Compare(a.Class, b.Class) })
	t.nodes = append(t.nodes, Node{ID: id, Name: name, Kind: kind, Zone: zone, Components: comp})
	t.adj = append(t.adj, nil)
	t.sealed.Store(nil)
	return id
}

// Connect adds an undirected link. It panics on unknown endpoints
// (construction bug). Connecting after a read query invalidates the
// sealed layout; the next query rebuilds it.
func (t *Topology) Connect(a, b NodeID, medium Medium, firewall exploits.VariantID) {
	if int(a) >= len(t.nodes) || int(b) >= len(t.nodes) || a < 0 || b < 0 {
		panic(fmt.Sprintf("topology: connect references unknown node (%d,%d)", a, b))
	}
	if a == b {
		panic("topology: self-link")
	}
	idx := int32(len(t.links))
	t.links = append(t.links, Link{A: a, B: b, Medium: medium, Firewall: firewall})
	t.adj[a] = append(t.adj[a], idx)
	t.adj[b] = append(t.adj[b], idx)
	t.sealed.Store(nil)
}

// seal returns the current sealed layout, building it when absent.
// Concurrent callers race on the fast path and serialize the build.
func (t *Topology) seal() *sealedGraph {
	if s := t.sealed.Load(); s != nil {
		return s
	}
	t.sealMu.Lock()
	defer t.sealMu.Unlock()
	if s := t.sealed.Load(); s != nil {
		return s
	}
	s := t.buildSeal()
	t.sealed.Store(s)
	return s
}

// sealedVectorSpan covers every vector defined by the exploits package;
// each gets its own Carries-filtered view so the sealed layout can never
// diverge from the path/reachability queries.
const sealedVectorSpan = int(exploits.VectorLocal) + 1

// buildSeal computes the CSR layout: degree counts → prefix offsets →
// slab fill → per-node sort (stable on node ID, so parallel edges keep
// link-insertion order) → one Carries-filtered view per vector copied
// from the sorted slab.
func (t *Topology) buildSeal() *sealedGraph {
	n := len(t.nodes)
	s := &sealedGraph{byKind: map[Kind][]NodeID{}}
	s.all.off = make([]int32, n+1)
	total := int32(0)
	for i, links := range t.adj {
		s.all.off[i] = total
		total += int32(len(links))
	}
	s.all.off[n] = total
	s.all.slab = make([]Neighbor, total)
	for i := range t.adj {
		span := s.all.slab[s.all.off[i]:s.all.off[i+1]]
		for j, li := range t.adj[i] {
			l := t.links[li]
			other := l.A
			if other == NodeID(i) {
				other = l.B
			}
			span[j] = Neighbor{Node: other, Medium: l.Medium, Firewall: l.Firewall}
		}
		slices.SortStableFunc(span, func(a, b Neighbor) int { return cmp.Compare(a.Node, b.Node) })
	}
	s.byVec = make([]neighborView, sealedVectorSpan)
	for vi := range s.byVec {
		v := exploits.Vector(vi)
		count := 0
		for _, nb := range s.all.slab {
			if nb.Medium.Carries(v) {
				count++
			}
		}
		view := neighborView{off: make([]int32, n+1), slab: make([]Neighbor, 0, count)}
		for i := 0; i < n; i++ {
			view.off[i] = int32(len(view.slab))
			for _, nb := range s.all.of(NodeID(i)) {
				if nb.Medium.Carries(v) {
					view.slab = append(view.slab, nb)
				}
			}
		}
		view.off[n] = int32(len(view.slab))
		s.byVec[vi] = view
	}
	for _, node := range t.nodes {
		s.byKind[node.Kind] = append(s.byKind[node.Kind], node.ID)
	}
	s.defaults = t.tallyDefaults()
	return s
}

// tallyDefaults counts the nodes carrying each default variant, class by
// class in first-appearance order and variants in first-seen order
// within a class. A plant has a handful of classes and variants per
// class, so both are found by linear search.
func (t *Topology) tallyDefaults() []DefaultCount {
	var groups [][]DefaultCount // one per class, in first-appearance order
	for _, node := range t.nodes {
		for _, comp := range node.Components {
			g := 0
			for g < len(groups) && groups[g][0].Class != comp.Class {
				g++
			}
			if g == len(groups) {
				groups = append(groups, nil)
			}
			i := 0
			for i < len(groups[g]) && groups[g][i].Variant != comp.Variant {
				i++
			}
			if i == len(groups[g]) {
				groups[g] = append(groups[g], DefaultCount{Class: comp.Class, Variant: comp.Variant})
			}
			groups[g][i].Nodes++
		}
	}
	var out []DefaultCount
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// DefaultCount is one entry of a plant's default-variant tally: the
// number of nodes that carry Variant for Class by default.
type DefaultCount struct {
	Class   exploits.Class
	Variant exploits.VariantID
	Nodes   int
}

// DefaultTally lists every (class, default variant) pair the plant
// carries with its node count. A class's entries are contiguous, classes
// in the order they first appear when walking nodes in ID order (classes
// ascending within a node), and variants in first-seen order within a
// class. The slice is a view into the sealed layout: zero-allocation,
// shared, read-only, and rebuilt after AddNode or Connect.
func (t *Topology) DefaultTally() []DefaultCount { return t.seal().defaults }

// Len returns the number of nodes.
func (t *Topology) Len() int { return len(t.nodes) }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) (Node, error) {
	if int(id) < 0 || int(id) >= len(t.nodes) {
		return Node{}, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return t.nodes[id], nil
}

// Nodes returns all nodes in ID order. The slice is shared; treat as
// read-only.
func (t *Topology) Nodes() []Node { return t.nodes }

// Links returns all links. The slice is shared; treat as read-only.
func (t *Topology) Links() []Link { return t.links }

// NodesOfKind returns the IDs of all nodes with the given kind, ascending.
// The slice is freshly allocated (callers shuffle it in place).
func (t *Topology) NodesOfKind(kind Kind) []NodeID {
	ids := t.seal().byKind[kind]
	if len(ids) == 0 {
		return nil
	}
	return append([]NodeID(nil), ids...)
}

// ValidateComponents checks the topology's configuration against a
// catalog: every node's (Class, VariantID) pair must reference a variant
// registered under that same class, and every firewalled link must
// reference a registered Firewall-class variant. Generators call it from
// their tests so a class-mismatched default (e.g. an HMI variant wired
// into the Historian slot) fails loudly instead of silently zeroing
// every exploitability lookup for the pairing. Nodes and classes are
// visited in deterministic order, so the first violation reported is
// stable.
func (t *Topology) ValidateComponents(cat *exploits.Catalog) error {
	if cat == nil {
		return errors.New("topology: ValidateComponents requires a catalog")
	}
	for _, n := range t.nodes {
		for _, comp := range n.Components {
			c, id := comp.Class, comp.Variant
			v, ok := cat.Variant(id)
			if !ok {
				return fmt.Errorf("topology: node %q: %v variant %q is not in the catalog", n.Name, c, id)
			}
			if v.Class != c {
				return fmt.Errorf("topology: node %q: variant %q belongs to class %v, not %v",
					n.Name, id, v.Class, c)
			}
		}
	}
	for i, l := range t.links {
		if l.Firewall == "" {
			continue
		}
		v, ok := cat.Variant(l.Firewall)
		if !ok {
			return fmt.Errorf("topology: link %d (%d↔%d): firewall variant %q is not in the catalog",
				i, l.A, l.B, l.Firewall)
		}
		if v.Class != exploits.ClassFirewall {
			return fmt.Errorf("topology: link %d (%d↔%d): variant %q belongs to class %v, not Firewall",
				i, l.A, l.B, l.Firewall, v.Class)
		}
	}
	return nil
}

// Fingerprint returns a deterministic 64-bit digest (FNV-1a) of the
// full topology — node names, kinds, zones, component assignments in
// canonical class order, and every link. Two topologies built by the
// same generator from the same spec and seed share a fingerprint, which
// is what the generated-grid determinism tests assert.
func (t *Topology) Fingerprint() uint64 {
	h := digest.New()
	h.U64(uint64(len(t.nodes)))
	for _, n := range t.nodes {
		h.Str(n.Name)
		h.Byte(byte(n.Kind))
		h.Byte(byte(n.Zone))
		h.U64(uint64(len(n.Components)))
		for _, comp := range n.Components {
			h.Byte(byte(comp.Class))
			h.Str(string(comp.Variant))
		}
	}
	h.U64(uint64(len(t.links)))
	for _, l := range t.links {
		h.U64(uint64(l.A))
		h.U64(uint64(l.B))
		h.Byte(byte(l.Medium))
		h.Str(string(l.Firewall))
	}
	return h.Sum()
}

// Neighbor is one hop reachable from a node.
type Neighbor struct {
	Node     NodeID
	Medium   Medium
	Firewall exploits.VariantID
}

// Neighbors lists nodes adjacent to id over any medium, sorted by node
// ID. The slice is a view into the sealed layout: zero-allocation,
// shared, read-only.
func (t *Topology) Neighbors(id NodeID) []Neighbor {
	if int(id) < 0 || int(id) >= len(t.nodes) {
		return nil
	}
	return t.seal().all.of(id)
}

// NeighborsByVector lists neighbors reachable with an attack of the given
// vector (media filtering only; firewall effects are probabilistic and
// belong to the threat model). The slice is a view into the sealed
// layout: zero-allocation, shared, read-only. The layout covers every
// defined vector; no medium carries any other, so it has no neighbors.
func (t *Topology) NeighborsByVector(id NodeID, v exploits.Vector) []Neighbor {
	if int(id) < 0 || int(id) >= len(t.nodes) || int(v) < 0 || int(v) >= sealedVectorSpan {
		return nil
	}
	return t.seal().byVec[v].of(id)
}

// ShortestPath returns a minimum-hop path from src to dst over links that
// carry any of the given vectors (or any medium when vectors is empty).
// It returns nil when no path exists.
func (t *Topology) ShortestPath(src, dst NodeID, vectors ...exploits.Vector) []NodeID {
	if int(src) >= len(t.nodes) || int(dst) >= len(t.nodes) || src < 0 || dst < 0 {
		return nil
	}
	if src == dst {
		return []NodeID{src}
	}
	usable := func(m Medium) bool {
		if len(vectors) == 0 {
			return true
		}
		for _, v := range vectors {
			if m.Carries(v) {
				return true
			}
		}
		return false
	}
	adj := t.seal().all
	prev := make([]NodeID, len(t.nodes))
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := make([]NodeID, 0, len(t.nodes))
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, nb := range adj.of(cur) {
			if !usable(nb.Medium) {
				continue
			}
			next := nb.Node
			if prev[next] != -1 {
				continue
			}
			prev[next] = cur
			if next == dst {
				var path []NodeID
				for n := dst; ; n = prev[n] {
					path = append(path, n)
					if n == src {
						break
					}
				}
				slices.Reverse(path)
				return path
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// Reachable reports whether dst can be reached from src over links
// carrying any of the vectors.
func (t *Topology) Reachable(src, dst NodeID, vectors ...exploits.Vector) bool {
	return t.ShortestPath(src, dst, vectors...) != nil
}

// ArticulationPoints returns the cut vertices of the graph (considering
// every medium), sorted ascending. Hardening these nodes is the
// "strategic" placement policy: they sit on every path between the parts
// they separate.
func (t *Topology) ArticulationPoints() []NodeID {
	n := len(t.nodes)
	adj := t.seal().all
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	isCut := make([]bool, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := 0
	var dfs func(u int)
	dfs = func(u int) {
		disc[u] = timer
		low[u] = timer
		timer++
		children := 0
		for _, nb := range adj.of(NodeID(u)) {
			v := int(nb.Node)
			if disc[v] == -1 {
				children++
				parent[v] = u
				dfs(v)
				if low[v] < low[u] {
					low[u] = low[v]
				}
				if parent[u] != -1 && low[v] >= disc[u] {
					isCut[u] = true
				}
			} else if v != parent[u] && disc[v] < low[u] {
				low[u] = disc[v]
			}
		}
		if parent[u] == -1 && children > 1 {
			isCut[u] = true
		}
	}
	for i := 0; i < n; i++ {
		if disc[i] == -1 {
			dfs(i)
		}
	}
	var out []NodeID
	for i, c := range isCut {
		if c {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// OnPathScores counts, for every node, how many (entry, target) pairs
// have SOME minimum-hop path through it (excluding endpoints): node v is
// on a shortest e→t path iff dist(e,v) + dist(v,t) = dist(e,t). Counting
// membership in any shortest path (not one arbitrary path) matters when
// parallel equal-cost routes exist — all of them carry attack traffic.
func (t *Topology) OnPathScores(entries, targets []NodeID) map[NodeID]int {
	scores := map[NodeID]int{}
	adj := t.seal().all
	distFrom := func(src NodeID) []int {
		dist := make([]int, len(t.nodes))
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue := make([]NodeID, 0, len(t.nodes))
		queue = append(queue, src)
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			for _, nb := range adj.of(cur) {
				if dist[nb.Node] == -1 {
					dist[nb.Node] = dist[cur] + 1
					queue = append(queue, nb.Node)
				}
			}
		}
		return dist
	}
	entryDist := make(map[NodeID][]int, len(entries))
	for _, e := range entries {
		entryDist[e] = distFrom(e)
	}
	targetDist := make(map[NodeID][]int, len(targets))
	for _, tgt := range targets {
		targetDist[tgt] = distFrom(tgt)
	}
	for _, e := range entries {
		de := entryDist[e]
		for _, tgt := range targets {
			dt := targetDist[tgt]
			if de[tgt] < 0 {
				continue // unreachable pair
			}
			total := de[tgt]
			for v := range t.nodes {
				id := NodeID(v)
				if id == e || id == tgt {
					continue
				}
				if de[v] >= 0 && dt[v] >= 0 && de[v]+dt[v] == total {
					scores[id]++
				}
			}
		}
	}
	return scores
}
