package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"asqprl/internal/core"
	"asqprl/internal/retrain"
	"asqprl/internal/server"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/help.golden from the registered flags")

func registered(t *testing.T) (*flag.FlagSet, *bytes.Buffer, options) {
	t.Helper()
	var out bytes.Buffer
	fs := flag.NewFlagSet("asqp-serve", flag.ContinueOnError)
	fs.SetOutput(&out)
	o := defaultOptions()
	registerFlags(fs, &o)
	return fs, &out, o
}

// TestHelpGolden pins the flag surface: adding, removing or re-defaulting a
// flag is a diff of testdata/help.golden (regen: go test ./cmd/asqp-serve
// -run TestHelpGolden -update-golden).
func TestHelpGolden(t *testing.T) {
	fs, out, _ := registered(t)
	if err := fs.Parse([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("Parse(-h) = %v, want flag.ErrHelp", err)
	}
	flags := 0
	fs.VisitAll(func(*flag.Flag) { flags++ })
	if flags != 34 {
		t.Errorf("asqp-serve registers %d flags, want 34", flags)
	}
	path := filepath.Join("testdata", "help.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("-h output differs from %s (regen with -update-golden if intended):\n%s", path, out.Bytes())
	}
}

// TestFlagsRegisterOwnersDefaults: registering the flags changes no field
// (every flag's default is the value its field already held), and the fields
// held what the package that applies them calls its default — so -h prints
// what server.New and retrain.New do with an unset field.
func TestFlagsRegisterOwnersDefaults(t *testing.T) {
	fs, _, o := registered(t)
	if want := defaultOptions(); !reflect.DeepEqual(o, want) {
		t.Errorf("registering flags changed the options:\n got %+v\nwant %+v", o, want)
	}
	srv, ret := server.DefaultConfig(), retrain.DefaultConfig()
	for name, want := range map[string]any{
		"addr":                    srv.Addr,
		"query-timeout":           srv.DefaultTimeout,
		"max-rows":                srv.MaxRows,
		"drain-timeout":           srv.DrainTimeout,
		"retrain-timeout":         ret.Timeout,
		"retrain-validate-margin": ret.ValidateMargin,
		"retrain-rollback-window": ret.RollbackWindow,
	} {
		f := fs.Lookup(name)
		if f == nil {
			t.Errorf("flag -%s is not registered", name)
		} else if f.DefValue != fmt.Sprint(want) {
			t.Errorf("-%s defaults to %s, its owner to %v", name, f.DefValue, want)
		}
	}
}

// TestDriftOverridesSurviveClone: -drift-confidence and -drift-count on a
// -load'ed system reach the configuration it carries, so the clone the retrain
// controller fine-tunes (rebuilt from a snapshot of that configuration) keeps
// them, as a trained system's clone does.
func TestDriftOverridesSurviveClone(t *testing.T) {
	ctx := context.Background()
	in := buildInputs{dataset: "imdb", scale: 0.02, seed: 1, k: 150, frame: 50, light: true,
		driftConfidence: 0.15, driftCount: 7}
	trained, err := buildSystem(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	in.loadFile = filepath.Join(t.TempDir(), "sys.asqp")
	if err := trained.SaveFile(in.loadFile); err != nil {
		t.Fatal(err)
	}
	in.driftConfidence, in.driftCount = 0.25, 9
	loaded, err := buildSystem(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		sys        *core.System
		confidence float64
		count      int
	}{"trained": {trained, 0.15, 7}, "loaded": {loaded, 0.25, 9}} {
		clone, err := c.sys.Clone()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []*core.System{c.sys, clone} {
			if d := s.Drift(); d.Confidence != c.confidence || d.Count != c.count {
				t.Errorf("%s system (or its clone): detector at %v/%d, want %v/%d",
					name, d.Confidence, d.Count, c.confidence, c.count)
			}
		}
	}
}
