// Package attacktree implements attack trees, one of the attack-modeling
// formalisms the paper names (§II: "Potential modeling approaches include,
// for example, Bayesian networks, Petri-nets, or attack trees").
//
// A tree's leaves are elementary attack steps with a success probability
// and an attempt-duration distribution; internal nodes are AND gates
// (all children required, attempted in parallel), the shape of the
// paper's §I example: an attack that must compromise every machine.
//
// Two evaluations are provided: an exact bottom-up success probability
// under the independence assumption (which reproduces the paper's §I
// worked example PSA ≈ PM1 × PM2), and Monte-Carlo sampling of (success,
// duration) pairs for time-based indicators.
package attacktree

import (
	"errors"
	"fmt"
	"math"

	"diversify/internal/rng"
)

// ErrInvalidTree reports a structurally invalid tree.
var ErrInvalidTree = errors.New("attacktree: invalid tree")

// Kind enumerates node types.
type Kind int

// Node kinds. Leaf nodes carry probabilities; gate nodes combine children.
const (
	Leaf Kind = iota + 1
	And
)

func (k Kind) String() string {
	switch k {
	case Leaf:
		return "LEAF"
	case And:
		return "AND"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is a tree node. Construct with NewLeaf/NewAnd and treat as
// immutable afterwards.
type Node struct {
	Name     string
	Kind     Kind
	Children []*Node
	Prob     float64  // leaf success probability
	Time     rng.Dist // leaf attempt duration; nil means instantaneous
}

// NewLeaf returns an elementary attack step.
func NewLeaf(name string, prob float64, dur rng.Dist) *Node {
	return &Node{Name: name, Kind: Leaf, Prob: prob, Time: dur}
}

// NewAnd returns a parallel-AND gate over children.
func NewAnd(name string, children ...*Node) *Node {
	return &Node{Name: name, Kind: And, Children: children}
}

// Tree wraps a root node.
type Tree struct {
	Root *Node
}

// New returns a tree with the given root.
func New(root *Node) *Tree { return &Tree{Root: root} }

// Validate checks structure: leaves have probabilities in [0,1] and no
// children; gates have children; names are unique.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("%w: nil root", ErrInvalidTree)
	}
	seen := map[string]bool{}
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.Name == "" {
			return fmt.Errorf("%w: node with empty name", ErrInvalidTree)
		}
		if seen[n.Name] {
			return fmt.Errorf("%w: duplicate node name %q", ErrInvalidTree, n.Name)
		}
		seen[n.Name] = true
		switch n.Kind {
		case Leaf:
			if len(n.Children) != 0 {
				return fmt.Errorf("%w: leaf %q has children", ErrInvalidTree, n.Name)
			}
			if n.Prob < 0 || n.Prob > 1 || math.IsNaN(n.Prob) {
				return fmt.Errorf("%w: leaf %q probability %v outside [0,1]", ErrInvalidTree, n.Name, n.Prob)
			}
		case And:
			if len(n.Children) == 0 {
				return fmt.Errorf("%w: gate %q has no children", ErrInvalidTree, n.Name)
			}
		default:
			return fmt.Errorf("%w: node %q has unknown kind %d", ErrInvalidTree, n.Name, n.Kind)
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.Root)
}

// SuccessProbability computes the exact success probability of the root
// under the independence assumption.
func (t *Tree) SuccessProbability() float64 {
	var eval func(n *Node) float64
	eval = func(n *Node) float64 {
		switch n.Kind {
		case Leaf:
			return n.Prob
		case And:
			p := 1.0
			for _, c := range n.Children {
				p *= eval(c)
			}
			return p
		default:
			return 0
		}
	}
	return eval(t.Root)
}

// Outcome is a sampled attack attempt.
type Outcome struct {
	Success  bool
	Duration float64
}

// Sample draws one attack attempt. Timing semantics: a leaf takes a draw
// from its duration distribution whether or not it succeeds; AND
// children run in parallel (duration = max over attempted children).
func (t *Tree) Sample(r *rng.Rand) Outcome {
	var eval func(n *Node) Outcome
	eval = func(n *Node) Outcome {
		switch n.Kind {
		case Leaf:
			d := 0.0
			if n.Time != nil {
				d = n.Time.Sample(r)
			}
			return Outcome{Success: r.Bool(n.Prob), Duration: d}
		case And:
			out := Outcome{Success: true}
			for _, c := range n.Children {
				o := eval(c)
				out.Success = out.Success && o.Success
				out.Duration = math.Max(out.Duration, o.Duration)
			}
			return out
		default:
			return Outcome{}
		}
	}
	return eval(t.Root)
}

// EstimateSuccess runs n Monte-Carlo samples and returns the observed
// success fraction and mean duration of successful attacks (NaN when no
// attack succeeded).
func (t *Tree) EstimateSuccess(n int, r *rng.Rand) (pSuccess, meanDuration float64) {
	succ := 0
	total := 0.0
	for i := 0; i < n; i++ {
		o := t.Sample(r)
		if o.Success {
			succ++
			total += o.Duration
		}
	}
	if succ == 0 {
		return 0, math.NaN()
	}
	return float64(succ) / float64(n), total / float64(succ)
}
