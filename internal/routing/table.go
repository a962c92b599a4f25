package routing

import (
	"fmt"

	"nucanet/internal/topology"
)

// noPort marks an unreachable (or self) destination in a Table.
const noPort = -1

// Table is a precomputed next-port lookup for one topology: the output
// port for every (current, destination) router pair, built once at
// network construction so the router hot path replaces algorithmic route
// computation with a flat array index. A Table implements Algorithm and
// is byte-for-byte faithful to the algorithm it was built from — the
// same ports, the same ok results — so precomputation cannot perturb
// simulation results (pinned by TestTablePrecomputeMatchesAlgorithm).
type Table struct {
	base  Algorithm
	nodes int
	ports []int8 // [cur*nodes+dst], noPort when !ok
}

// Precompute builds the next-port table for alg over t, returning an
// error when the algorithm emits a port outside the table's int8 range.
// Passing an existing *Table returns it unchanged, so wrapping is
// idempotent.
func Precompute(t *topology.Topology, alg Algorithm) (*Table, error) {
	if tb, ok := alg.(*Table); ok {
		return tb, nil
	}
	n := t.NumNodes()
	tb := &Table{base: alg, nodes: n, ports: make([]int8, n*n)}
	for cur := 0; cur < n; cur++ {
		row := tb.ports[cur*n : (cur+1)*n]
		for dst := 0; dst < n; dst++ {
			p, ok := alg.NextPort(t, cur, dst)
			if !ok {
				row[dst] = noPort
				continue
			}
			if p < 0 || p > 127 {
				return nil, fmt.Errorf("routing: %s port %d at node %d out of table range", alg.Name(), p, cur)
			}
			row[dst] = int8(p)
		}
	}
	return tb, nil
}

// Name returns the underlying algorithm's name.
func (tb *Table) Name() string { return tb.base.Name() }

// NextPort is a flat table lookup; the topology argument is ignored (the
// table was built for exactly one topology).
func (tb *Table) NextPort(_ *topology.Topology, cur, dst topology.NodeID) (int, bool) {
	p := tb.ports[cur*tb.nodes+dst]
	if p == noPort {
		return 0, false
	}
	return int(p), true
}
