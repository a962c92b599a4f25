package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"nucanet/internal/cache"
)

// TestDirectoryReportMatchesMapReference pins the directory's report on
// Design H2 at 1, 2 and 8 cores to testdata/dir_report_h2.json, recorded
// from the map-per-column implementation the per-owner rows replaced and
// converted to the row shape (each owner's four counts from its maps,
// both drop totals copied). The JSON form compares the listed owners, so
// an owner listed with all-zero counts, or missing, fails as surely as a
// wrong count.
func TestDirectoryReportMatchesMapReference(t *testing.T) {
	want, err := os.ReadFile("testdata/dir_report_h2.json")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]*cache.DirReport{}
	for _, n := range []int{1, 2, 8} {
		res, err := Run(Options{DesignID: "H2", Policy: cache.Directory, Mode: cache.Multicast,
			Benchmark: "gcc", Accesses: 300, Cores: n, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprint(n)] = res.Directory
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("directory reports differ from the map-based reference:\n got %s\nwant %s", buf.Bytes(), want)
	}
}
