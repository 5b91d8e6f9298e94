package scenario

import (
	"flag"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gendt/scenarios"
)

// TestResolveDataset covers the -dataset / -scenario-file resolution every
// CLI shares: no file, file only, file plus an explicit -dataset, and an
// unreadable file.
func TestResolveDataset(t *testing.T) {
	src, err := fs.ReadFile(scenarios.FS, "tunnel-corridor.toml")
	if err != nil {
		t.Fatal(err)
	}
	cfg := filepath.Join(t.TempDir(), "w.toml")
	text := strings.Replace(string(src), `name = "Tunnel"`, `name = "ResolveDatasetTest"`, 1)
	if err := os.WriteFile(cfg, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing.toml")
	_, wantMissingErr := RegisterFile(missing)
	if wantMissingErr == nil {
		t.Fatal("RegisterFile accepted a missing file")
	}

	for _, tc := range []struct {
		name    string
		args    []string
		want    string
		wantErr string
	}{
		{"no file", []string{"-dataset", "B"}, "B", ""},
		{"no flags", nil, "A", ""},
		{"file only", []string{"-scenario-file", cfg}, "ResolveDatasetTest", ""},
		{"file and explicit dataset", []string{"-scenario-file", cfg, "-dataset", "B"}, "B", ""},
		{"explicit default value", []string{"-dataset", "A", "-scenario-file", cfg}, "A", ""},
		{"unreadable file", []string{"-scenario-file", missing}, "", wantMissingErr.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fset := flag.NewFlagSet("test", flag.ContinueOnError)
			fset.SetOutput(io.Discard)
			fset.String("dataset", "A", "")
			fset.String("scenario-file", "", "")
			if err := fset.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, err := ResolveDataset(fset)
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Fatalf("got (%q, %v), want %q", got, err, tc.want)
			}
		})
	}
	if _, ok := Lookup("ResolveDatasetTest"); !ok {
		t.Fatal("-scenario-file did not register the file's scenario")
	}
}
