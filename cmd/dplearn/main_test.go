package main

import (
	"math"
	"strings"
	"testing"

	"deepmd-go/internal/learn"
)

// Every flag the loop would otherwise replace with a default is checked
// before anything is built: -rounds 0 used to run no round and report the
// default budget, -replicas 0 to run three replicas and -temp -5 to explore
// at 100 K.
func TestCheckFlags(t *testing.T) {
	ok := learn.Config{
		Replicas: 3, MaxRounds: 6, InitFrames: 4, ValFrames: 16, TrajPerReplica: 2,
		ExploreSteps: 60, CaptureEvery: 10, TempK: 60, Lo: 8e-3, Hi: 0.5,
		MaxHarvest: 12, ConvergeFrac: 0.05, LR: 3e-3, InitTrainSteps: 150, TrainSteps: 200,
	}
	if err := checkFlags(&ok); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		edit func(*learn.Config)
		flag string // "" when the flags must pass
	}{
		{"rounds=0", func(c *learn.Config) { c.MaxRounds = 0 }, "-rounds"},
		{"rounds=-1", func(c *learn.Config) { c.MaxRounds = -1 }, "-rounds"},
		{"rounds=1", func(c *learn.Config) { c.MaxRounds = 1 }, ""},
		{"replicas=0", func(c *learn.Config) { c.Replicas = 0 }, "-replicas"},
		{"replicas=1", func(c *learn.Config) { c.Replicas = 1 }, "-replicas"},
		{"replicas=2", func(c *learn.Config) { c.Replicas = 2 }, ""},
		{"init-frames=0", func(c *learn.Config) { c.InitFrames = 0 }, "-init-frames"},
		{"val-frames=0", func(c *learn.Config) { c.ValFrames = 0 }, "-val-frames"},
		{"traj=0", func(c *learn.Config) { c.TrajPerReplica = 0 }, "-traj"},
		{"explore-steps=-2", func(c *learn.Config) { c.ExploreSteps = -2 }, "-explore-steps"},
		{"capture-every=0", func(c *learn.Config) { c.CaptureEvery = 0 }, "-capture-every"},
		{"max-harvest=0", func(c *learn.Config) { c.MaxHarvest = 0 }, "-max-harvest"},
		{"init-steps=0", func(c *learn.Config) { c.InitTrainSteps = 0 }, "-init-steps"},
		{"train-steps=0", func(c *learn.Config) { c.TrainSteps = 0 }, "-train-steps"},
		{"temp=-5", func(c *learn.Config) { c.TempK = -5 }, "-temp"},
		{"temp=0", func(c *learn.Config) { c.TempK = 0 }, "-temp"},
		{"temp=NaN", func(c *learn.Config) { c.TempK = math.NaN() }, "-temp"},
		{"temp=+Inf", func(c *learn.Config) { c.TempK = math.Inf(1) }, "-temp"},
		{"lr=0", func(c *learn.Config) { c.LR = 0 }, "-lr"},
		{"converge-frac=-0.1", func(c *learn.Config) { c.ConvergeFrac = -0.1 }, "-converge-frac"},
		{"lo=0", func(c *learn.Config) { c.Lo = 0 }, "-lo"},
		{"lo>hi", func(c *learn.Config) { c.Lo, c.Hi = 0.6, 0.5 }, "-lo"},
		{"hi=NaN", func(c *learn.Config) { c.Hi = math.NaN() }, "-lo"},
		{"lo=hi", func(c *learn.Config) { c.Lo, c.Hi = 0.5, 0.5 }, ""},
	} {
		cfg := ok
		c.edit(&cfg)
		err := checkFlags(&cfg)
		switch {
		case c.flag == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.flag != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.flag != "" && !strings.HasPrefix(err.Error(), c.flag+" "):
			t.Errorf("%s: error %q does not name %s", c.name, err, c.flag)
		}
	}
}
