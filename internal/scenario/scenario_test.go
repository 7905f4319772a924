package scenario

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

const lcls2JSON = `{
  "workloads": [
    {
      "name": "Coherent Scattering (XPCS, XSVS)",
      "unit_size": "2GB",
      "complexity_flop_per_gb": 17e12,
      "local": "5TF",
      "remote": "100TF",
      "bandwidth": "25Gbps",
      "transfer_rate": "2GB/s",
      "generation_rate": "2GB/s",
      "tier": 2
    },
    {
      "name": "Liquid Scattering",
      "unit_size": "4GB",
      "complexity_flop_per_gb": 5e12,
      "local": "5TF",
      "remote": "100TF",
      "bandwidth": "25Gbps",
      "transfer_rate": "3GB/s",
      "generation_rate": "4GB/s",
      "tier": 2
    }
  ]
}`

func TestLoadAndDecidePortfolio(t *testing.T) {
	f, err := Load(strings.NewReader(lcls2JSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != 2 {
		t.Fatalf("workloads = %d", len(f.Workloads))
	}
	rows, err := DecideAll(f)
	if err != nil {
		t.Fatal(err)
	}
	// Coherent scattering: remote wins (gain ~5) within Tier 2.
	cs := rows[0]
	if cs.Decision.Choice != core.ChooseRemote {
		t.Errorf("CS decision = %v (%s)", cs.Decision.Choice, cs.Decision.Reason)
	}
	// Liquid scattering generates 4 GB/s but transfers at 3 GB/s:
	// sustained check fails, falls back to local.
	ls := rows[1]
	if ls.Decision.SustainedOK {
		t.Error("LS sustained check should fail")
	}
	if ls.Decision.Choice != core.ChooseLocal {
		t.Errorf("LS decision = %v (%s)", ls.Decision.Choice, ls.Decision.Reason)
	}

	out := Render(rows)
	for _, want := range []string{"Coherent Scattering", "remote", "local", "Gain"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultThetaIsStreaming(t *testing.T) {
	f, err := Load(strings.NewReader(lcls2JSON))
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.Workloads[0].Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Theta != 1 {
		t.Fatalf("default theta = %v, want 1", p.Theta)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty doc", `{}`},
		{"empty list", `{"workloads": []}`},
		{"bad json", `{"workloads": [`},
		{"unknown field", `{"workloads":[{"name":"x","surprise":1}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(c.in)); err == nil {
				t.Error("accepted")
			}
		})
	}
}

func TestDecideAllFieldErrors(t *testing.T) {
	mk := func(mutate func(*Workload)) *File {
		w := Workload{
			Name: "w", UnitSize: "1GB", ComplexityFLOPPerGB: 1e12,
			Local: "1TF", Remote: "10TF", Bandwidth: "25Gbps",
			TransferRate: "1GB/s",
		}
		mutate(&w)
		return &File{Workloads: []Workload{w}}
	}
	cases := []struct {
		name   string
		mutate func(*Workload)
	}{
		{"bad size", func(w *Workload) { w.UnitSize = "potato" }},
		{"bad local", func(w *Workload) { w.Local = "x" }},
		{"bad remote", func(w *Workload) { w.Remote = "x" }},
		{"bad bandwidth", func(w *Workload) { w.Bandwidth = "x" }},
		{"bad rate", func(w *Workload) { w.TransferRate = "x" }},
		{"bad gen", func(w *Workload) { w.GenerationRate = "x" }},
		{"bad tier", func(w *Workload) { w.Tier = 9 }},
		{"negative theta", func(w *Workload) { w.Theta = ptr(0.2) }},
		{"zero theta", func(w *Workload) { w.Theta = ptr(0.0) }},
		{"alpha above 1", func(w *Workload) { w.TransferRate = "99GB/s" }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := DecideAll(mk(c.mutate)); err == nil {
				t.Error("accepted")
			}
		})
	}
	if _, err := DecideAll(nil); !errors.Is(err, ErrNoWorkloads) {
		t.Errorf("nil file err = %v", err)
	}
}
