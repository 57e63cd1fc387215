package core

// White-box tests of the sharded schedule's internals. (The byte-identical
// envelope determinism test lives in internal/cli — cli imports core for
// detector validation, so core's tests cannot import cli back.)

import "testing"

func TestShardHaloDepth(t *testing.T) {
	base := Config{}.withDefaults(false)
	cases := []struct {
		name string
		mut  func(*Config)
		want int
	}{
		{"defaults (two-hop, ttl 3)", func(c *Config) {}, 2},
		{"one-hop scope", func(c *Config) { c.Scope = ScopeOneHop }, 1},
		{"iff off, two-hop", func(c *Config) { c.IFFThreshold = -1 }, 2},
		{"iff off, one-hop", func(c *Config) { c.IFFThreshold = -1; c.Scope = ScopeOneHop }, 1},
		{"short ttl", func(c *Config) { c.IFFTTL = 1 }, 2},
		{"deep ttl does not widen the halo", func(c *Config) { c.IFFTTL = 9 }, 2},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if got := shardHaloDepth(cfg); got != tc.want {
			t.Errorf("%s: depth %d, want %d", tc.name, got, tc.want)
		}
	}
}
