// Command app is the fixture's only non-test user of package a.
package main

import (
	"fmt"

	"nucanet/internal/a"
)

func main() {
	s := a.New()
	s.Hits++
	s.Misses = 1
	var t a.Ticker = &a.Engine{}
	t.Tick()
	fmt.Println(s.Hits, a.Color(1))
}
