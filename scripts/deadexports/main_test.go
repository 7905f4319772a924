package main

import (
	"reflect"
	"strings"
	"testing"
)

// The fixture plants one dead export (a.Dead) next to a String method
// reached only through fmt, JSON hooks reached only through
// encoding/json, a method named like a JSON hook whose signature is not
// one (dead), an export used by a second package and one used only from
// a nested module. Its struct fields plant one field
// never set and one never read, next to fields set only through a
// nested selector, an address, a pointer method or a positional
// literal, and a json-tagged field that is never used.
func TestFixture(t *testing.T) {
	prog, err := load("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []finding{
		{"a.Config.NeverRead", "reads it"},
		{"a.Config.NeverSet", "sets it"},
		{"a.Dead", "references it"},
		{"a.Level.MarshalJSON", "references it"},
	}
	if got := prog.dead(); !reflect.DeepEqual(got, want) {
		t.Fatalf("dead = %q, want %q", got, want)
	}
	if pkgs, lines := prog.closure("b"); pkgs != 2 || lines != 70 {
		t.Errorf("closure(b) = %d packages, %d lines; want 2, 70", pkgs, lines)
	}

	cases := []struct {
		name, allow string
		want        []string // one substring per expected problem, in order
	}{
		{"unlisted", "", []string{
			"dead export a.Config.NeverRead: no non-test code reads it",
			"dead export a.Config.NeverSet: no non-test code sets it",
			"dead export a.Dead: no non-test code references it",
			"dead export a.Level.MarshalJSON: no non-test code references it"}},
		{"allowlisted", "# comment\na.Dead planted by the fixture\na.Config.NeverRead set by b\na.Config.NeverSet read by b\na.Level.MarshalJSON planted\n", nil},
		{"whole package", "a.* fixture package, fields included\n", nil},
		{"stale", "a.Dead planted\na.Used called by b\na.Gone deleted\na.Config.NeverRead set by b\na.Config.NeverSet read by b\na.Level.MarshalJSON planted\n",
			[]string{"stale allowlist entry a.Gone", "stale allowlist entry a.Used"}},
		{"stale field", "a.Dead planted\na.Config.NeverRead set by b\na.Config.NeverSet read by b\na.Config.Addr set through &\na.Pair.A set positionally\na.Level.MarshalJSON planted\n",
			[]string{"stale allowlist entry a.Config.Addr", "stale allowlist entry a.Pair.A"}},
		{"no reason", "a.Dead\na.Config.NeverRead set by b\na.Config.NeverSet read by b\na.Level.MarshalJSON planted\n", []string{"entry a.Dead gives no reason"}},
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
