package place

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"nucanet/internal/bank"
	"nucanet/internal/config"
	"nucanet/internal/core"
	"nucanet/internal/router"
	"nucanet/internal/sim"
	"nucanet/internal/topology"
)

// Columns is the bank-set column count of every candidate: the paper's
// 16-way address interleave is fixed, the optimizer searches what fills
// each column and where the endpoints sit.
const Columns = 16

// waysTotal is the per-column associativity every candidate must reach:
// with the allowed bank specs each way is 64 KB, so 16 ways per column x
// 16 columns is exactly the paper's 16 MB L2 at 1024 sets per bank.
const waysTotal = 16

// Families lists the topology families the optimizer searches. All three
// appear in Table 3, so the search space is "the paper's designs and
// everything between them": Design A is (mesh, 16x1-way, core 7, mem 8),
// Design C is (simplified-mesh, 4x4-way, core 7), and Design F is (halo,
// [1 1 2 4 8]) — see TestDesignFInSpace.
var Families = []string{"halo", "simplified-mesh", "mesh"}

// Candidate encodes one point of the placement space: a topology family,
// the bank stack of one column (MRU to LRU, in ways; the spec of a w-way
// bank is 64*w KB), and the endpoint columns. Wire delays are not free
// variables — they derive from the bank geometry (bigger banks are
// physically longer, so their links are slower), exactly how Table 3
// assigns them.
type Candidate struct {
	Family string
	// Stack is the ways of each bank position, MRU first; every entry is
	// 1, 2, 4, or 8 and the entries sum to 16.
	Stack []int
	// CoreX is the column hosting the core (meshes; the halo hub hosts
	// the core by construction). MemX is the memory controller column
	// (full mesh only; the simplified mesh moves memory next to the core
	// and the halo centres it).
	CoreX, MemX int
}

// wireDelay is the link wire delay entering a w-way (64*w KB) bank: the
// Table 3 calibration (64 KB rows cost 1 cycle, 128-256 KB rows 2, the
// 512 KB row 3).
func wireDelay(ways int) int {
	switch {
	case ways <= 1:
		return 1
	case ways <= 4:
		return 2
	default:
		return 3
	}
}

// Canon returns the candidate in canonical form: endpoint fields a
// family ignores are zeroed, so two candidates that build the same
// machine compare (and hash, and cache) equal.
func (c Candidate) Canon() Candidate {
	out := c
	out.Stack = append([]int(nil), c.Stack...)
	switch c.Family {
	case "halo":
		out.CoreX, out.MemX = 0, 0
	case "simplified-mesh":
		out.MemX = c.CoreX // memory rides with the core
	}
	return out
}

// String is the canonical one-line encoding, e.g.
// "halo[1-1-2-4-8]" or "mesh[4-4-4-4] core=7 mem=8".
func (c Candidate) String() string {
	c = c.Canon()
	parts := make([]string, len(c.Stack))
	for i, w := range c.Stack {
		parts[i] = strconv.Itoa(w)
	}
	s := fmt.Sprintf("%s[%s]", c.Family, strings.Join(parts, "-"))
	switch c.Family {
	case "simplified-mesh":
		s += fmt.Sprintf(" core=%d", c.CoreX)
	case "mesh":
		s += fmt.Sprintf(" core=%d mem=%d", c.CoreX, c.MemX)
	}
	return s
}

// Hash is a stable 64-bit digest of the canonical encoding;
// cmd/cli_test.go diffs it across runs to pin search determinism.
func (c Candidate) Hash() uint64 {
	h := fnv.New64a()
	h.Write([]byte(c.String()))
	return h.Sum64()
}

// Design lowers the candidate to a full config.Design: bank specs from
// the stack, wire delays from the bank geometry (VertDelay[i] is the
// delay entering bank i, HorizDelay the slowest such link since
// horizontal links span a full column pitch), and for halos the
// centre-die memory wire (4 cycles to the hub plus one per spike
// position) that makes Design F exactly in-space.
func (c Candidate) Design() config.Design {
	c = c.Canon()
	banks := make([]bank.Spec, len(c.Stack))
	vd := make([]int, len(c.Stack))
	maxd := 1
	for i, w := range c.Stack {
		banks[i] = bank.Spec{SizeKB: 64 * w, Ways: w}
		vd[i] = wireDelay(w)
		if vd[i] > maxd {
			maxd = vd[i]
		}
	}
	p := topology.Params{W: Columns, H: len(c.Stack), VertDelay: vd}
	switch c.Family {
	case "halo":
		p.MemWireDelay = 4 + len(c.Stack)
	default:
		p.CoreX, p.MemX = c.CoreX, c.MemX
		p.HorizDelay = maxd
	}
	return config.Design{
		ID:          "OPT",
		Description: "optimizer candidate " + c.String(),
		Topology:    c.Family,
		Params:      p,
		Banks:       banks,
		Router:      router.DefaultConfig(),
	}
}

// Valid reports whether the encoding itself is well-formed (family,
// stack alphabet and sum, endpoint ranges). Verify is the stronger
// network-safety gate.
func (c Candidate) Valid() bool {
	ok := false
	for _, f := range Families {
		if c.Family == f {
			ok = true
		}
	}
	if !ok || len(c.Stack) == 0 {
		return false
	}
	sum := 0
	for _, w := range c.Stack {
		if w != 1 && w != 2 && w != 4 && w != 8 {
			return false
		}
		sum += w
	}
	if sum != waysTotal {
		return false
	}
	if c.Family != "halo" && (c.CoreX < 0 || c.CoreX >= Columns || c.MemX < 0 || c.MemX >= Columns) {
		return false
	}
	return true
}

// Verify is the static safety gate every candidate passes before a
// single cycle is simulated. It is core's own gate (Options.Validate),
// so it accepts exactly the candidates a run accepts: config validation, the routing progress proof network construction
// enforces (the channel-dependence cycle check for blocking engines, the
// livelock-freedom argument for deflecting ones) and, when cores > 0,
// whether the topology can host an n-core CMP fabric (see
// cmp.SupportsHost). The optimizer never scores a candidate this
// rejects.
func (c Candidate) Verify(cores int) error {
	if !c.Valid() {
		return fmt.Errorf("place: malformed candidate %s", c)
	}
	d := c.Design()
	o := core.DefaultOptions()
	o.DesignID, o.Design, o.Cores = d.ID, &d, cores
	return o.Validate()
}

// Seed returns the search's starting point: the halo of Design F, which
// is exactly in-space, so the best found candidate can never score below
// the paper's winner.
func Seed() Candidate {
	return Candidate{Family: "halo", Stack: []int{1, 1, 2, 4, 8}}
}

// SeedCMP is the starting point of a multi-core search: the full mesh of
// Design A, the best grid design in Table 3. Halos cannot host a CMP
// fabric (a single hub would serve every core), so a Cores > 0 search
// starts — and stays — inside the grid families.
func SeedCMP() Candidate {
	stack := make([]int, waysTotal)
	for i := range stack {
		stack[i] = 1
	}
	return Candidate{Family: "mesh", Stack: stack, CoreX: 7, MemX: 8}
}

// Mutate returns a neighbor of c drawn with rng: split a bank into two
// half-size banks, merge two adjacent equal banks, swap two adjacent
// banks, switch the topology family, or slide an endpoint column. The
// result is always Valid (capacity and associativity are conserved by
// construction); it may still fail Verify or the area gate, which is the
// caller's job to check. Returns c unchanged only if rng is spectacularly
// unlucky (every attempted move degenerate), which the retry bound makes
// effectively impossible.
func Mutate(c Candidate, rng *sim.RNG) Candidate {
	for attempt := 0; attempt < 32; attempt++ {
		n := c.Canon()
		switch rng.Intn(6) {
		case 0: // split a multi-way bank in two
			idx := splittable(n.Stack, rng)
			if idx < 0 {
				continue
			}
			w := n.Stack[idx] / 2
			n.Stack = append(n.Stack[:idx], append([]int{w, w}, n.Stack[idx+1:]...)...)
		case 1: // merge two adjacent equal banks
			idx := mergeable(n.Stack, rng)
			if idx < 0 {
				continue
			}
			n.Stack[idx] *= 2
			n.Stack = append(n.Stack[:idx+1], n.Stack[idx+2:]...)
		case 2: // swap two adjacent unequal banks
			if len(n.Stack) < 2 {
				continue
			}
			i := rng.Intn(len(n.Stack) - 1)
			if n.Stack[i] == n.Stack[i+1] {
				continue
			}
			n.Stack[i], n.Stack[i+1] = n.Stack[i+1], n.Stack[i]
		case 3: // switch family
			f := Families[rng.Intn(len(Families))]
			if f == n.Family {
				continue
			}
			n.Family = f
			if f != "halo" && c.Family == "halo" {
				n.CoreX, n.MemX = Columns/2-1, Columns/2
			}
		case 4: // slide the core column
			if n.Family == "halo" {
				continue
			}
			n.CoreX = slide(n.CoreX, rng)
		case 5: // slide the memory column (full mesh only)
			if n.Family != "mesh" {
				continue
			}
			n.MemX = slide(n.MemX, rng)
		}
		n = n.Canon()
		if n.Valid() && n.String() != c.String() {
			return n
		}
	}
	return c
}

// splittable picks a random index holding a multi-way bank, or -1.
func splittable(stack []int, rng *sim.RNG) int {
	var idxs []int
	for i, w := range stack {
		if w > 1 {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return -1
	}
	return idxs[rng.Intn(len(idxs))]
}

// mergeable picks a random index i with stack[i] == stack[i+1] and the
// merged bank still in the alphabet, or -1.
func mergeable(stack []int, rng *sim.RNG) int {
	var idxs []int
	for i := 0; i+1 < len(stack); i++ {
		if stack[i] == stack[i+1] && stack[i]*2 <= 8 {
			idxs = append(idxs, i)
		}
	}
	if len(idxs) == 0 {
		return -1
	}
	return idxs[rng.Intn(len(idxs))]
}

// slide moves a column index one step, clamped to the die.
func slide(x int, rng *sim.RNG) int {
	if rng.Intn(2) == 0 {
		x--
	} else {
		x++
	}
	if x < 0 {
		x = 0
	}
	if x >= Columns {
		x = Columns - 1
	}
	return x
}
