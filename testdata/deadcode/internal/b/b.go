// Package b holds the fixture's dead declarations: nothing outside its
// test uses them.
package b

// New shares its name with a.New, which cmd/app calls; only b's test
// calls this one.
func New() int { return 0 }

// helper's only use is its own recursive call.
func helper(n int) int {
	if n == 0 {
		return 0
	}
	return helper(n - 1)
}
