package experiments

// A cross-commit pin for the rendered evaluation: testdata/quick_golden.txt
// holds every artifact RunAll(QuickSweep()) renders, text and CSV, as
// written once and checked in. A change to the sweep vocabulary, the
// executor or the cell store that alters any figure, table or CSV byte
// fails here.

import (
	"os"
	"strings"
	"testing"
)

// artifactGoldenDump renders every artifact of the suite in the layout
// of testdata/quick_golden.txt.
func artifactGoldenDump(s *Suite) string {
	var b strings.Builder
	for _, a := range s.Artifacts {
		b.WriteString("== " + a.ID + ": " + a.Title + " ==\n")
		b.WriteString("-- text\n" + a.Text + "\n")
		b.WriteString("-- csv\n" + a.CSV + "\n")
	}
	return b.String()
}

func TestQuickArtifactsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/quick_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	suite, err := RunAll(QuickSweep())
	if err != nil {
		t.Fatal(err)
	}
	got := artifactGoldenDump(suite)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("artifact golden diverges at line %d\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("artifact golden length differs: got %d lines, want %d", len(gl), len(wl))
}
