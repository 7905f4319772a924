package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// The behaviour corpus pins what the CLIs print and write and what
// decided answers, byte for byte, so "the same outputs as before" is a
// test rather than a hand check. Each file in testdata/behaviour is one
// case in a txtar-like layout: free text, then sections opened by a
// "-- name --" line.
//
// A CLI case holds the inputs
//
//	-- argv --          one line: the binary (ssslab or streamdecide), then its arguments
//	-- input/NAME --    optional: a file written to the working directory first
//
// and, for a cold run and then a warm run in one fresh CACHE_DIR (the
// relative path ../cache, so outputs that name it do not vary), each in
// its own empty working directory, the outputs
//
//	-- cold/exit --, -- cold/stdout --, -- cold/stderr --
//	-- cold/file/NAME --   every file the run left in its working directory
//	-- warm/... --         the same for the warm run
//
// A server case holds "-- path --" and "-- body --", and the status and
// body that a service.New server over a fresh cache directory answers
// to that POST cold ("-- cold/status --", "-- cold/body --") and then
// warm ("-- warm/..."), through httptest.
//
// The test renders each case from its inputs and what the programs did,
// and fails unless the rendering equals the file. One rule masks text:
// maskIndexLoad. There is no flag that rewrites the corpus; a change
// that moves these bytes on purpose edits the files and says why.

const behaviourDir = "testdata/behaviour"

// maskIndexLoad hides the cache-stats line's index-load wall time, the
// only text in these outputs that varies between identical runs.
var maskIndexLoad = regexp.MustCompile(`index-load=[0-9.]+[a-zµ]*s`)

type section struct{ name, text string }

func TestBehaviourCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(behaviourDir, "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no behaviour cases in %s (err %v)", behaviourDir, err)
	}
	bins := buildCLIs(t, "ssslab", "streamdecide")
	for _, file := range files {
		t.Run(strings.TrimSuffix(filepath.Base(file), ".txt"), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			head, secs := parseCase(string(data))
			var got []section
			if argv := find(secs, "argv"); argv != nil {
				got = runCLICase(t, bins, secs)
			} else if find(secs, "path") != nil {
				got = runServerCase(t, secs)
			} else {
				t.Fatal("case has neither an argv nor a path section")
			}
			if rendered := renderCase(head, got); rendered != string(data) {
				t.Errorf("%s: behaviour changed; the case now renders as\n%s", file, rendered)
			}
		})
	}
}

// buildCLIs builds each named cmd/ binary once into a temporary
// directory and returns name → path.
func buildCLIs(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	bins := map[string]string{}
	for _, n := range names {
		bins[n] = filepath.Join(dir, n)
	}
	return bins
}

// runCLICase runs the case's argv cold and then warm against one fresh
// cache directory and returns the input sections followed by both
// runs' outputs.
func runCLICase(t *testing.T, bins map[string]string, secs []section) []section {
	var inputs []section
	for _, s := range secs {
		if s.name == "argv" || strings.HasPrefix(s.name, "input/") {
			inputs = append(inputs, s)
		}
	}
	argv := strings.Fields(find(secs, "argv").text)
	if len(argv) == 0 || bins[argv[0]] == "" {
		t.Fatalf("argv %q does not start with a built binary", argv)
	}
	root := t.TempDir()
	out := append([]section(nil), inputs...)
	for _, phase := range []string{"cold", "warm"} {
		out = append(out, runCLI(t, phase, bins[argv[0]], argv[1:], inputs, root)...)
	}
	return out
}

// runCLI runs one phase in root/phase with CACHE_DIR=../cache.
func runCLI(t *testing.T, phase, bin string, args []string, inputs []section, root string) []section {
	t.Helper()
	dir := filepath.Join(root, phase)
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{}
	for _, in := range inputs {
		if name, ok := strings.CutPrefix(in.name, "input/"); ok {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(in.text), 0o644); err != nil {
				t.Fatal(err)
			}
			written[name] = true
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Env = []string{"PATH=" + os.Getenv("PATH"), "HOME=" + dir, "CACHE_DIR=" + filepath.Join("..", "cache")}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	exit := 0
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ctx.Err() != nil {
			t.Fatalf("%s run: %v", phase, err)
		}
		exit = ee.ExitCode()
	}
	out := []section{
		{phase + "/exit", strconv.Itoa(exit) + "\n"},
		{phase + "/stdout", maskIndexLoad.ReplaceAllString(stdout.String(), "index-load=<masked>")},
		{phase + "/stderr", maskIndexLoad.ReplaceAllString(stderr.String(), "index-load=<masked>")},
	}
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err == nil && !written[rel] {
			names = append(names, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, section{phase + "/file/" + filepath.ToSlash(name), string(data)})
	}
	return out
}

// runServerCase POSTs the case's body to its path twice on one server
// over a fresh cache directory, and returns the inputs followed by the
// cold and warm status and body.
func runServerCase(t *testing.T, secs []section) []section {
	path, body := find(secs, "path"), find(secs, "body")
	if body == nil {
		t.Fatal("server case has no body section")
	}
	cacheDir := t.TempDir()
	defer workload.CloseDiskCache(cacheDir)
	srv := service.New(service.Config{CacheDir: cacheDir})
	out := []section{*path, *body}
	for _, phase := range []string{"cold", "warm"} {
		req := httptest.NewRequest("POST", strings.TrimSpace(path.text), strings.NewReader(body.text))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		out = append(out,
			section{phase + "/status", strconv.Itoa(rec.Code) + "\n"},
			section{phase + "/body", rec.Body.String()})
	}
	return out
}

func find(secs []section, name string) *section {
	for i := range secs {
		if secs[i].name == name {
			return &secs[i]
		}
	}
	return nil
}

// parseCase splits a case file into its free-text head and sections.
func parseCase(data string) (head string, secs []section) {
	lines := strings.SplitAfter(data, "\n")
	cur := -1
	for _, line := range lines {
		if name, ok := marker(line); ok {
			secs = append(secs, section{name: name})
			cur = len(secs) - 1
			continue
		}
		if cur < 0 {
			head += line
		} else {
			secs[cur].text += line
		}
	}
	return head, secs
}

func marker(line string) (string, bool) {
	line = strings.TrimSuffix(line, "\n")
	if !strings.HasPrefix(line, "-- ") || !strings.HasSuffix(line, " --") || len(line) < 7 {
		return "", false
	}
	return line[3 : len(line)-3], true
}

// renderCase is parseCase's inverse for sections whose text ends in a
// newline. Cases are compared as rendered text, so output that lacks
// one still renders deterministically and cannot match by accident.
func renderCase(head string, secs []section) string {
	var b strings.Builder
	b.WriteString(head)
	for _, s := range secs {
		fmt.Fprintf(&b, "-- %s --\n%s", s.name, s.text)
	}
	return b.String()
}
