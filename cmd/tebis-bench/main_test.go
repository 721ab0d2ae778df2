package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"tebis/internal/bench"
)

// TestUsageListsEveryExperiment: the usage line in the package comment
// names exactly bench.AllExperiments, in order, so it never offers an
// id RunExperiment rejects or hides one it runs.
func TestUsageListsEveryExperiment(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`-experiment all\|([a-z0-9,]+)\]`).FindSubmatch(src)
	if m == nil {
		t.Fatal("no -experiment list in the usage comment")
	}
	want := make([]string, len(bench.AllExperiments))
	for i, e := range bench.AllExperiments {
		want[i] = string(e)
	}
	if got := string(m[1]); got != strings.Join(want, ",") {
		t.Errorf("usage lists %s, want %s", got, strings.Join(want, ","))
	}
}
