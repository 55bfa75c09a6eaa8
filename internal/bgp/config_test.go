package bgp

import (
	"strings"
	"testing"
	"time"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative MRAI", func(c *Config) { c.MRAI = -time.Second }},
		{"zero jitter min", func(c *Config) { c.JitterMin = 0 }},
		{"inverted jitter", func(c *Config) { c.JitterMin = 1.0; c.JitterMax = 0.5 }},
		{"negative proc delay", func(c *Config) { c.ProcDelayMin = -1 }},
		{"inverted proc delay", func(c *Config) { c.ProcDelayMin = time.Second; c.ProcDelayMax = time.Millisecond }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := DefaultConfig()
			tt.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Errorf("%s accepted", tt.name)
			}
		})
	}
}

func TestEnhancementsString(t *testing.T) {
	tests := []struct {
		e    Enhancements
		want string
	}{
		{Enhancements{}, "standard"},
		{Enhancements{SSLD: true}, "ssld"},
		{Enhancements{WRATE: true}, "wrate"},
		{Enhancements{Assertion: true}, "assertion"},
		{Enhancements{GhostFlushing: true}, "ghostflush"},
		{Enhancements{SSLD: true, WRATE: true}, "ssld+wrate"},
		{Enhancements{Assertion: true, GhostFlushing: true}, "assertion+ghostflush"},
		// SSLDImmediate refines SSLD's timing; results keep reporting "ssld".
		{Enhancements{SSLD: true, SSLDImmediate: true}, "ssld"},
		{Enhancements{SSLD: true, SSLDImmediate: true, WRATE: true}, "ssld+wrate"},
	}
	for _, tt := range tests {
		if got := tt.e.String(); got != tt.want {
			t.Errorf("%+v.String() = %q, want %q", tt.e, got, tt.want)
		}
	}
}

// TestVariantTable: names and enhancement sets map both ways through the
// one table — every row, the ssldImmediate ablation, and unions.
func TestVariantTable(t *testing.T) {
	if got := strings.Join(VariantNames(), " "); got != "standard ssld wrate assertion ghostflush" {
		t.Errorf("VariantNames = %q, want the paper's five in the paper's order", got)
	}
	for _, v := range Variants {
		e, err := VariantByName(v.Name)
		if err != nil || e != v.E {
			t.Errorf("VariantByName(%q) = %+v, %v; want %+v", v.Name, e, err, v.E)
		}
		if v.E.String() != v.Name {
			t.Errorf("%+v.String() = %q, want %q", v.E, v.E.String(), v.Name)
		}
	}
	if _, err := VariantByName("turbo"); err == nil {
		t.Error("unknown variant accepted")
	}

	for _, tt := range []struct {
		e     Enhancements
		names string
	}{
		{Enhancements{}, ""},
		{Enhancements{SSLD: true, GhostFlushing: true}, "ssld ghostflush"},
		{Enhancements{SSLD: true, SSLDImmediate: true}, "ssldImmediate"},
		{Enhancements{SSLD: true, SSLDImmediate: true, Assertion: true}, "ssldImmediate assertion"},
	} {
		names := tt.e.Names()
		if got := strings.Join(names, " "); got != tt.names {
			t.Errorf("%+v.Names() = %q, want %q", tt.e, got, tt.names)
		}
		var back Enhancements
		for _, name := range names {
			e, err := VariantByName(name)
			if err != nil {
				t.Fatal(err)
			}
			back = back.With(e)
		}
		if back != tt.e {
			t.Errorf("names %q resolve to %+v, want %+v", tt.names, back, tt.e)
		}
	}
}

func TestUpdateString(t *testing.T) {
	w := Update{Dest: 0, Withdraw: true}
	if w.String() != "withdraw 0" {
		t.Errorf("withdraw String = %q", w.String())
	}
	a := Update{Dest: 0, Path: pathOf(5, 4, 0)}
	if a.String() != "announce 0 (5 4 0)" {
		t.Errorf("announce String = %q", a.String())
	}
}
