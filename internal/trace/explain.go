package trace

import (
	"fmt"
	"slices"
	"strings"
)

// PathCount is one root→target attack chain and how often the sampled
// replications traversed it.
type PathCount struct {
	// Path renders the causal chain entry→…→node ("corp-pc-3 → eng-ws-1
	// → plc-2").
	Path string `json:"path"`
	// Count is the number of compromise events that completed the chain
	// (re-infections count again — the attacker re-walked the path).
	Count int `json:"count"`
	// Reps is how many distinct sampled replications saw the chain.
	Reps int `json:"reps"`
}

// ChokePoint attributes blocked traversals to one placed variant: how
// often a node's variant (or a link's firewall) resisted an attempt.
type ChokePoint struct {
	Node    string `json:"node"`
	Variant string `json:"variant"`
	// Blocked counts resisted attempts; Firewall marks link-level blocks
	// (the variant is then the firewall's, not the node's).
	Blocked  int  `json:"blocked"`
	Firewall bool `json:"firewall,omitempty"`
}

// CauseCount is one detection cause's event count.
type CauseCount struct {
	Cause string `json:"cause"`
	Count int    `json:"count"`
}

// DetectionReport is the detection-latency timeline across the sampled
// replications.
type DetectionReport struct {
	// Detected counts sampled replications with at least one detection;
	// Events the total detection events.
	Detected int `json:"detected"`
	Events   int `json:"events"`
	// First lists the first-detection sim-times of the detected
	// replications, ascending; MeanFirst is their mean.
	First     []float64 `json:"first,omitempty"`
	MeanFirst float64   `json:"mean_first,omitempty"`
	// Causes breaks detection events down by cause, sorted by count
	// descending then cause name.
	Causes []CauseCount `json:"causes,omitempty"`
}

// ChronologyEvent is one rotation-relevant event in the eviction /
// re-infection chronology.
type ChronologyEvent struct {
	Rep  int     `json:"rep"`
	T    float64 `json:"t"`
	Kind string  `json:"kind"` // rotate | evict | reinfect
	Node string  `json:"node"`
}

// RotationReport is the moving-target chronology across the sampled
// replications (all zero for static candidates).
type RotationReport struct {
	Ticks        int `json:"ticks,omitempty"`
	Rotations    int `json:"rotations,omitempty"`
	Evictions    int `json:"evictions,omitempty"`
	Reinfections int `json:"reinfections,omitempty"`
	// MeanEviction is the mean sim-time of evicting rotations.
	MeanEviction float64 `json:"mean_eviction,omitempty"`
	// Chronology lists rotate/evict/reinfect events in (rep, time) order,
	// truncated to the explain options' cap; Truncated counts the rest.
	Chronology []ChronologyEvent `json:"chronology,omitempty"`
	Truncated  int               `json:"truncated,omitempty"`
}

// Explanation is the aggregated causal report for one candidate: what
// the sampled traces say about where attacks went, where they were
// stopped, when they were noticed, and what rotation churned. Every
// field is a pure function of the input traces (sorted, never
// map-ordered), so explanations are part of the byte-identity surface.
type Explanation struct {
	// Candidate labels the explained candidate ("baseline", "best", …);
	// Rotation names its schedule ("static" when it rotates nothing).
	Candidate string `json:"candidate"`
	Rotation  string `json:"rotation,omitempty"`
	// Replications is the evaluation's total replication count; Sampled
	// how many were traced; Records the total records captured; Dropped
	// the records lost to per-replication caps.
	Replications int `json:"replications"`
	Sampled      int `json:"sampled"`
	Records      int `json:"records"`
	Dropped      int `json:"dropped,omitempty"`
	// Paths is the attack-path frequency tree, flattened to root→target
	// chains sorted by traversal count; MorePaths counts distinct chains
	// beyond the TopPaths cap.
	Paths     []PathCount `json:"paths,omitempty"`
	MorePaths int         `json:"more_paths,omitempty"`
	// ChokePoints ranks placed variants by blocked traversals; MoreChokePoints
	// counts entries beyond the cap.
	ChokePoints     []ChokePoint    `json:"choke_points,omitempty"`
	MoreChokePoints int             `json:"more_choke_points,omitempty"`
	Detection       DetectionReport `json:"detection"`
	RotationChurn   RotationReport  `json:"rotation_churn"`
}

// ExplainOpts parameterizes the aggregation.
type ExplainOpts struct {
	// Candidate / Rotation label the report (see Explanation).
	Candidate string
	Rotation  string
	// Replications is the evaluation's total replication count (the
	// sampled count is derived from the traces themselves).
	Replications int
	// TopPaths caps the path table (<= 0 → 10).
	TopPaths int
	// NodeName renders a node id (nil → "node<N>").
	NodeName func(int32) string
}

// maxPathDepth bounds causal-chain walks; re-infection cycles after
// rotation cures cannot loop past it. maxChokePoints caps the
// choke-point table and maxChronology the rotation chronology.
const (
	maxPathDepth   = 64
	maxChokePoints = 24
	maxChronology  = 64
)

// Explain aggregates sampled traces into one deterministic explanation
// report. Traces must be in replication order (as EvaluateTraced
// returns them); records within a trace are in event order.
//
//diversify:det-root trace aggregation entry point: same traces in, same explanation bytes out
func Explain(traces []Trace, opts ExplainOpts) Explanation {
	if opts.TopPaths <= 0 {
		opts.TopPaths = 10
	}
	name := opts.NodeName
	if name == nil {
		name = func(id int32) string { return fmt.Sprintf("node%d", id) }
	}
	ex := Explanation{
		Candidate:    opts.Candidate,
		Rotation:     opts.Rotation,
		Replications: opts.Replications,
		Sampled:      len(traces),
	}

	type pathAgg struct {
		count   int
		lastRep int
		reps    int
	}
	paths := map[string]*pathAgg{}
	type chokeKey struct {
		node     int32
		variant  string
		firewall bool
	}
	chokes := map[chokeKey]int{}
	causes := map[string]int{}
	var chronology []ChronologyEvent
	var evictionSum float64

	// parent holds the latest causal parent per node within one trace;
	// chain is the reusable path-walk scratch.
	parent := map[int32]int32{}
	var chain []int32

	for _, tr := range traces {
		clear(parent)
		detected := false
		ex.Records += len(tr.Records)
		ex.Dropped += tr.Dropped
		for _, r := range tr.Records {
			switch r.Kind {
			case KindSeed:
				parent[r.Node] = -1
			case KindInfected, KindInjected:
				parent[r.Node] = r.Parent
				// Walk the causal chain back to the seeding root. The walk
				// follows parents as they stood when each ancestor was
				// compromised (updated in event order above), capped so
				// post-rotation re-infection cycles terminate.
				chain = chain[:0]
				for at := r.Node; at >= 0 && len(chain) < maxPathDepth; {
					chain = append(chain, at)
					next, ok := parent[at]
					if !ok || slices.Contains(chain, next) {
						break
					}
					at = next
				}
				var b strings.Builder
				for i := len(chain) - 1; i >= 0; i-- {
					if b.Len() > 0 {
						b.WriteString(" → ")
					}
					b.WriteString(name(chain[i]))
				}
				key := b.String()
				agg := paths[key]
				if agg == nil {
					agg = &pathAgg{lastRep: -1}
					paths[key] = agg
				}
				agg.count++
				if agg.lastRep != tr.Rep {
					agg.lastRep = tr.Rep
					agg.reps++
				}
			case KindBlocked, KindFirewall:
				chokes[chokeKey{node: r.Node, variant: string(r.Variant), firewall: r.Kind == KindFirewall}]++
			case KindDetect:
				ex.Detection.Events++
				causes[CauseName(r.Detail)]++
				if !detected {
					detected = true
					ex.Detection.Detected++
					ex.Detection.First = append(ex.Detection.First, r.T)
				}
			case KindRotTick:
				ex.RotationChurn.Ticks++
			case KindRotate:
				ex.RotationChurn.Rotations++
				kind := "rotate"
				if r.Detail > 0 {
					kind = "evict"
					ex.RotationChurn.Evictions++
					evictionSum += r.T
				}
				if len(chronology) < maxChronology {
					chronology = append(chronology, ChronologyEvent{Rep: tr.Rep, T: r.T, Kind: kind, Node: name(r.Node)})
				} else {
					ex.RotationChurn.Truncated++
				}
			case KindReinfect:
				ex.RotationChurn.Reinfections++
				if len(chronology) < maxChronology {
					chronology = append(chronology, ChronologyEvent{Rep: tr.Rep, T: r.T, Kind: "reinfect", Node: name(r.Node)})
				} else {
					ex.RotationChurn.Truncated++
				}
			}
		}
	}

	// Flatten the path tree: traversal count descending, then path
	// ascending — a total deterministic order independent of map order.
	pathRows := make([]PathCount, 0, len(paths))
	for p, agg := range paths {
		pathRows = append(pathRows, PathCount{Path: p, Count: agg.count, Reps: agg.reps})
	}
	slices.SortFunc(pathRows, func(a, b PathCount) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		return strings.Compare(a.Path, b.Path)
	})
	if len(pathRows) > opts.TopPaths {
		ex.MorePaths = len(pathRows) - opts.TopPaths
		pathRows = pathRows[:opts.TopPaths]
	}
	ex.Paths = pathRows

	chokeRows := make([]ChokePoint, 0, len(chokes))
	for k, n := range chokes {
		chokeRows = append(chokeRows, ChokePoint{Node: name(k.node), Variant: k.variant, Blocked: n, Firewall: k.firewall})
	}
	slices.SortFunc(chokeRows, func(a, b ChokePoint) int {
		if a.Blocked != b.Blocked {
			return b.Blocked - a.Blocked
		}
		if c := strings.Compare(a.Node, b.Node); c != 0 {
			return c
		}
		return strings.Compare(a.Variant, b.Variant)
	})
	if len(chokeRows) > maxChokePoints {
		ex.MoreChokePoints = len(chokeRows) - maxChokePoints
		chokeRows = chokeRows[:maxChokePoints]
	}
	ex.ChokePoints = chokeRows

	causeRows := make([]CauseCount, 0, len(causes))
	for c, n := range causes {
		causeRows = append(causeRows, CauseCount{Cause: c, Count: n})
	}
	slices.SortFunc(causeRows, func(a, b CauseCount) int {
		if a.Count != b.Count {
			return b.Count - a.Count
		}
		return strings.Compare(a.Cause, b.Cause)
	})
	ex.Detection.Causes = causeRows

	slices.Sort(ex.Detection.First)
	if n := len(ex.Detection.First); n > 0 {
		sum := 0.0
		for _, t := range ex.Detection.First {
			sum += t
		}
		ex.Detection.MeanFirst = sum / float64(n)
	}
	if ex.RotationChurn.Evictions > 0 {
		ex.RotationChurn.MeanEviction = evictionSum / float64(ex.RotationChurn.Evictions)
	}
	// Traces arrive in replication order and records in event order, so
	// the chronology is already (rep, time)-sorted.
	ex.RotationChurn.Chronology = chronology
	return ex
}
