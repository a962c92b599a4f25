package cliutil

import (
	"flag"
	"io"
	"testing"

	"nucanet/internal/cache"
	"nucanet/internal/telemetry"
)

func quietFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestSchemeDefaults(t *testing.T) {
	fs := quietFlagSet()
	scheme := Scheme(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if p, m, err := scheme(); err != nil || p != cache.FastLRU || m != cache.Multicast {
		t.Fatalf("defaults: %v/%v, %v; want fastLRU/multicast", p, m, err)
	}
}

func TestSchemeParsesNames(t *testing.T) {
	fs := quietFlagSet()
	scheme := Scheme(fs)
	if err := fs.Parse([]string{"-policy", "promotion", "-mode", "unicast"}); err != nil {
		t.Fatal(err)
	}
	if p, m, err := scheme(); err != nil || p != cache.Promotion || m != cache.Unicast {
		t.Fatalf("parsed %v/%v, %v; want promotion/unicast", p, m, err)
	}
}

// TestSchemeRejectsUnknown: the flag package accepts any name, and the
// resolver rejects a miss with the catalogue's own error.
func TestSchemeRejectsUnknown(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-policy", "bogus"}, `cache: unknown policy "bogus" (registered: promotion, LRU, fastLRU, directory)`},
		{[]string{"-mode", "broadcast"}, `cache: unknown mode "broadcast" (registered: unicast, multicast)`},
	} {
		fs := quietFlagSet()
		scheme := Scheme(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: flag parse: %v", tc.args, err)
		}
		if _, _, err := scheme(); err == nil || err.Error() != tc.want {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestTelemetryConfig(t *testing.T) {
	fs := quietFlagSet()
	tf := Telemetry(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := tf.Config(); got != (telemetry.Config{}) || got.Enabled() {
		t.Fatalf("default config not disabled: %+v", got)
	}

	fs = quietFlagSet()
	tf = Telemetry(fs)
	if err := fs.Parse([]string{"-trace", "-", "-heatmap", "-sample", "50"}); err != nil {
		t.Fatal(err)
	}
	got := tf.Config()
	want := telemetry.Config{Trace: true, Heatmap: true, SampleEvery: 50}
	if got != want {
		t.Fatalf("config %+v, want %+v", got, want)
	}
	if *tf.TracePath != "-" {
		t.Fatalf("trace path %q", *tf.TracePath)
	}
}

func TestDesignDefault(t *testing.T) {
	fs := quietFlagSet()
	d := Design(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *d != "A" {
		t.Fatalf("default design %q, want A", *d)
	}
}
