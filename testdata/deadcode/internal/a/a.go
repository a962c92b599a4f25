// Package a holds the declarations of the dead-code guard's fixture
// that cmd/app uses, and one write-only field.
package a

// New is called by cmd/app.
func New() *Stats { return &Stats{} }

// Stats has a field cmd/app reads and one it only writes.
type Stats struct {
	Hits   int
	Misses int
}

// Ticker is the module interface cmd/app drives an Engine through.
type Ticker interface{ Tick() }

type base struct{}

// Tick is reached only through Ticker, promoted from base into *Engine.
func (base) Tick() {}

// Engine embeds base, so Tick is in its method set.
type Engine struct{ base }

// Color is printed only through fmt.Stringer.
type Color int

func (c Color) String() string { return "red" }
