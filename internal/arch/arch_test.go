package arch

import (
	"strings"
	"testing"
)

func TestHaswellValid(t *testing.T) {
	c := Haswell()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestHaswellGeometry(t *testing.T) {
	c := Haswell()
	if got := c.L1.Sets(); got != 64 {
		t.Errorf("L1 sets = %d, want 64", got)
	}
	if got := c.L1.Lines(); got != 512 {
		t.Errorf("L1 lines = %d, want 512 (the write-set capacity wall)", got)
	}
	if got := c.L2.Lines(); got != 4096 {
		t.Errorf("L2 lines = %d, want 4096", got)
	}
	if got := c.L3.Lines(); got != 131072 {
		t.Errorf("L3 lines = %d, want 131072 (the read-set capacity wall)", got)
	}
	if got := c.L3.Sets(); got != 8192 {
		t.Errorf("L3 sets = %d, want 8192", got)
	}
	if got := c.MaxThreads(); got != 8 {
		t.Errorf("max threads = %d, want 8", got)
	}
}

func TestSecondsConversion(t *testing.T) {
	c := Haswell()
	s := c.Seconds(3_400_000_000)
	if s < 0.999 || s > 1.001 {
		t.Fatalf("3.4G cycles should be ~1s, got %g", s)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Cores = 0 },
		func(c *Config) { c.ThreadsPerCore = -1 },
		func(c *Config) { c.FreqGHz = 0 },
		func(c *Config) { c.L1.Ways = 0 },
		func(c *Config) { c.L2.SizeBytes = 12345 },
		func(c *Config) { c.TSX.MaxNest = 0 },
		func(c *Config) { c.STM.LockArrayLog2 = 1 },
		func(c *Config) { c.Cores = 65; c.ThreadsPerCore = 1 },
		func(c *Config) { c.Cores = 33; c.ThreadsPerCore = 1 },
		func(c *Config) { c.Cores = 17; c.ThreadsPerCore = 2 },
		func(c *Config) { c.L3.Ways = 32 }, // 8 MB / (64 B * 32) = 4096 sets: only the way limit fails
		func(c *Config) { c.Shard.Shards = -1 },
	}
	for i, mutate := range cases {
		c := Haswell()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation failure", i)
		}
	}
}

// TestValidateWayLimit pins the 16-way limit of the cache model's
// recency word: 16 ways pass, 32 ways fail with the reason in the error.
func TestValidateWayLimit(t *testing.T) {
	c := Haswell()
	c.L1.Ways = 16 // 32 sets
	if err := c.Validate(); err != nil {
		t.Fatalf("16-way L1 rejected: %v", err)
	}
	c.L1.Ways = 32 // 16 sets: every other check passes
	err := c.Validate()
	if err == nil || !strings.Contains(err.Error(), "at most 16") || !strings.Contains(err.Error(), "64-bit word") {
		t.Fatalf("32-way L1: err = %v, want the 16-way limit and its reason", err)
	}
}
