package topology

import "fmt"

// Scope names a level of the machine hierarchy, ordered from finest
// (ScopeNode) to coarsest (ScopeSystem). The location-correlation module
// classifies fault-propagation behaviour by the smallest scope that
// encloses all components touched by a correlation chain.
type Scope int

// Hierarchy levels, finest first.
const (
	ScopeNode Scope = iota
	ScopeNodeCard
	ScopeMidplane
	ScopeRack
	ScopeSystem
)

var scopeNames = [...]string{"node", "nodecard", "midplane", "rack", "system"}

// String returns the lower-case level name.
func (s Scope) String() string {
	if s < ScopeNode || s > ScopeSystem {
		return "invalid"
	}
	return scopeNames[s]
}

// Valid reports whether s is one of the defined levels.
func (s Scope) Valid() bool { return s >= ScopeNode && s <= ScopeSystem }

// ParseScope decodes a level name as rendered by String ("node",
// "nodecard", "midplane", "rack", "system"); it is how command-line
// flags select a fleet's partitioning granularity.
func ParseScope(name string) (Scope, error) {
	for i, n := range scopeNames {
		if n == name {
			return Scope(i), nil
		}
	}
	return 0, fmt.Errorf("topology: unknown scope %q (want node, nodecard, midplane, rack, or system)", name)
}

// MaxScope returns the coarser of a and b.
func MaxScope(a, b Scope) Scope {
	if a > b {
		return a
	}
	return b
}

// SpanScope returns the smallest scope enclosing every location in locs.
// An empty slice spans ScopeNode (no propagation evidence).
func SpanScope(locs []Location) Scope {
	if len(locs) == 0 {
		return ScopeNode
	}
	span := locs[0].Level()
	for _, l := range locs[1:] {
		span = MaxScope(span, CommonScope(locs[0], l))
	}
	return span
}
