package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func requireGo(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
}

func TestListCatalog(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-list) = %d, stderr: %s", code, errOut.String())
	}
	for _, name := range []string{"detsource", "ctxpropagate", "rnggate", "durableerr", "telemetryguard", "guardedby", "detreach", "hotalloc"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("catalog missing analyzer %q:\n%s", name, out.String())
		}
	}
}

func TestRepoIsClean(t *testing.T) {
	requireGo(t)
	var out, errOut strings.Builder
	if code := run([]string{"-C", "../..", "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("run on repo = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
}

// scratchModule builds a one-package throwaway module and returns its
// root, for seeding violations end to end.
func scratchModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module diversify\n\ngo 1.24\n"
	for rel, content := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSeededViolation is the acceptance check from the other side: a
// time.Now() planted in internal/malware of a scratch module must make
// the linter exit non-zero with a file:line diagnostic.
func TestSeededViolation(t *testing.T) {
	requireGo(t)
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module diversify\n\ngo 1.24\n")
	write("internal/malware/bad.go", `package malware

import "time"

func Clock() time.Time {
	return time.Now()
}
`)
	var out, errOut strings.Builder
	code := run([]string{"-C", dir, "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("run on seeded violation = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "bad.go:6") || !strings.Contains(got, "detsource") {
		t.Errorf("diagnostic missing file:line or analyzer name:\n%s", got)
	}
}

// TestSeededDetReach: a clock read two calls below a det-root in a
// package detsource does not even cover must still fail, with the call
// chain in the diagnostic.
func TestSeededDetReach(t *testing.T) {
	requireGo(t)
	dir := scratchModule(t, map[string]string{
		"internal/topology/bad.go": `package topology

import "time"

func helper() time.Time { return time.Now() }

// Root is certified.
//
//diversify:det-root seeded check
func Root() time.Time { return helper() }
`,
	})
	var out, errOut strings.Builder
	if code := run([]string{"-C", dir, "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "detreach") || !strings.Contains(got, "topology.Root -> topology.helper") {
		t.Errorf("diagnostic missing analyzer or call chain:\n%s", got)
	}

	// The same read one package away: the call graph must follow the
	// edge from the det-root into the callee's package.
	dir = scratchModule(t, map[string]string{
		"internal/diversity/cost.go": `package diversity

import "time"

func Cost() int64 { return time.Now().UnixNano() }
`,
		"internal/optimize/search.go": `package optimize

import "diversify/internal/diversity"

// Search is certified.
//
//diversify:det-root seeded check
func Search() int64 { return diversity.Cost() }
`,
	})
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-C", dir, "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("cross-package run = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	got = out.String()
	if !strings.Contains(got, "cost.go:5") || !strings.Contains(got, "detreach") || !strings.Contains(got, "optimize.Search -> diversity.Cost") {
		t.Errorf("cross-package diagnostic missing file:line, analyzer or call chain:\n%s", got)
	}
}

// TestSeededGuardedBy: an unlocked write to a guardedby field fails.
func TestSeededGuardedBy(t *testing.T) {
	requireGo(t)
	dir := scratchModule(t, map[string]string{
		"internal/telemetry/bad.go": `package telemetry

import "sync"

type R struct {
	mu sync.Mutex
	n  int //diversify:guardedby mu
}

func Bump(r *R) { r.n++ }
`,
	})
	var out, errOut strings.Builder
	if code := run([]string{"-C", dir, "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "guardedby") || !strings.Contains(got, "not under r.mu.Lock()") {
		t.Errorf("diagnostic missing analyzer or message:\n%s", got)
	}
}

// TestSeededHotAlloc: a heap escape in a hotpath function with no
// committed baseline fails, driving the real compiler end to end.
func TestSeededHotAlloc(t *testing.T) {
	requireGo(t)
	dir := scratchModule(t, map[string]string{
		"internal/des/bad.go": `package des

// Hot is escape-gated.
//
//diversify:hotpath seeded check
func Hot() *int { return new(int) }
`,
	})
	var out, errOut strings.Builder
	if code := run([]string{"-C", dir, "./..."}, &out, &errOut); code != 1 {
		t.Fatalf("run = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	got := out.String()
	if !strings.Contains(got, "hotalloc") || !strings.Contains(got, "new heap escape in hotpath function des.Hot") {
		t.Errorf("diagnostic missing analyzer or message:\n%s", got)
	}
}

// TestWriteBaseline: -write-baseline persists the current escapes and a
// follow-up check is clean.
func TestWriteBaseline(t *testing.T) {
	requireGo(t)
	dir := scratchModule(t, map[string]string{
		"internal/des/bad.go": `package des

// Hot is escape-gated.
//
//diversify:hotpath seeded check
func Hot() *int { return new(int) }
`,
	})
	var out, errOut strings.Builder
	if code := run([]string{"-C", dir, "-write-baseline"}, &out, &errOut); code != 0 {
		t.Fatalf("run(-write-baseline) = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "internal/lint/testdata/escape_baseline.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "des.Hot") {
		t.Errorf("baseline missing des.Hot entry:\n%s", data)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-C", dir, "./..."}, &out, &errOut); code != 0 {
		t.Fatalf("run after -write-baseline = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
}

func TestBadFlagExitsTwo(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errOut); code != 2 {
		t.Fatalf("run(bad flag) = %d, want 2", code)
	}
}
