package main

import (
	"reflect"
	"strings"
	"testing"
)

// The fixture plants one dead export (a.Dead) next to a String method
// reached only through fmt, an export used by a second package and one
// used only from a nested module.
func TestFixture(t *testing.T) {
	prog, err := load("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := prog.dead(), []string{"a.Dead"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("dead = %q, want %q", got, want)
	}
	if pkgs, lines := prog.closure("b"); pkgs != 2 || lines != 27 {
		t.Errorf("closure(b) = %d packages, %d lines; want 2, 27", pkgs, lines)
	}

	cases := []struct {
		name, allow string
		want        []string // one substring per expected problem, in order
	}{
		{"unlisted", "", []string{"dead export a.Dead"}},
		{"allowlisted", "# comment\na.Dead planted by the fixture\n", nil},
		{"whole package", "a.* fixture package\n", nil},
		{"stale", "a.Dead planted\na.Used called by b\na.Gone deleted\n",
			[]string{"stale allowlist entry a.Gone", "stale allowlist entry a.Used"}},
		{"no reason", "a.Dead\n", []string{"entry a.Dead gives no reason"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := checkAllow(prog.dead(), strings.NewReader(c.allow))
			if len(got) != len(c.want) {
				t.Fatalf("problems = %q, want %d matching %q", got, len(c.want), c.want)
			}
			for i, w := range c.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("problem %d = %q, want it to name %q", i, got[i], w)
				}
			}
		})
	}
}
