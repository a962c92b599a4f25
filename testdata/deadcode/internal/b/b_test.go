package b

import "testing"

func TestNew(t *testing.T) {
	if New() != 0 || helper(2) != 0 {
		t.Fatal("want 0")
	}
}
