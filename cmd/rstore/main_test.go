package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rstore/internal/engine/lsm"
)

// runCLI drives the command with a store file in a temp dir.
func runCLI(t *testing.T, store string, args ...string) error {
	t.Helper()
	return run(context.Background(), append([]string{"-store", store}, args...))
}

func TestCLILifecycle(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "data.rstore")

	if err := runCLI(t, store, "init"); err != nil {
		t.Fatalf("init: %v", err)
	}
	if _, err := os.Stat(store); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}

	// Commit from literal values and from a file.
	docFile := filepath.Join(dir, "doc.json")
	if err := os.WriteFile(docFile, []byte(`{"from":"file"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCLI(t, store, "commit",
		"-put", "a={"+`"x":1}`, "-put", "b=@"+docFile); err != nil {
		t.Fatalf("commit 1: %v", err)
	}
	if err := runCLI(t, store, "commit", "-put", `a={"x":2}`, "-del", "b"); err != nil {
		t.Fatalf("commit 2: %v", err)
	}

	// Reads work across process "restarts" (every call reloads the file).
	if err := runCLI(t, store, "log"); err != nil {
		t.Fatalf("log: %v", err)
	}
	if err := runCLI(t, store, "get", "-key", "a", "-branch", "main"); err != nil {
		t.Fatalf("get: %v", err)
	}
	if err := runCLI(t, store, "history", "-key", "a"); err != nil {
		t.Fatalf("history: %v", err)
	}
	if err := runCLI(t, store, "stats"); err != nil {
		t.Fatalf("stats: %v", err)
	}

	// Checkout into a directory.
	out := filepath.Join(dir, "co")
	if err := runCLI(t, store, "checkout", "-branch", "main", "-out", out); err != nil {
		t.Fatalf("checkout: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(out, "a"))
	if err != nil || string(data) != `{"x":2}` {
		t.Fatalf("checked-out a = %q, %v", data, err)
	}
	if _, err := os.Stat(filepath.Join(out, "b")); err == nil {
		t.Fatal("deleted key b materialized on checkout")
	}

	// Branch management.
	if err := runCLI(t, store, "branch", "-name", "old", "-version", "1"); err != nil {
		t.Fatalf("branch: %v", err)
	}
	if err := runCLI(t, store, "get", "-key", "b", "-branch", "old"); err != nil {
		t.Fatalf("get on old branch: %v", err)
	}
}

// runDiskCLI drives the command on the lsm backend against a data
// directory, then proves the command released the directory lock whatever
// its outcome: the node's directory must open for the next process.
func runDiskCLI(t *testing.T, data string, args ...string) error {
	t.Helper()
	err := run(context.Background(), append([]string{"-backend", "lsm", "-data", data}, args...))
	node := filepath.Join(data, "node-0")
	if _, serr := os.Stat(node); serr == nil {
		be, lerr := lsm.Open(node, lsm.Options{})
		if lerr != nil {
			t.Fatalf("%v left %s locked: %v", args, node, lerr)
		}
		if cerr := be.Close(); cerr != nil {
			t.Fatal(cerr)
		}
	}
	return err
}

// TestCLILSMLifecycle is the acceptance path: a store committed through
// the CLI on the lsm backend is closed at the end of every command —
// releasing the directory lock — and reopened (WAL replay) by the next
// one, and must return identical results throughout.
func TestCLILSMLifecycle(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "store.d")

	if err := runDiskCLI(t, data, "init"); err != nil {
		t.Fatalf("init: %v", err)
	}
	if _, err := os.Stat(filepath.Join(data, "node-0")); err != nil {
		t.Fatalf("data directory missing: %v", err)
	}
	if err := runDiskCLI(t, data, "init"); err == nil {
		t.Fatal("double init succeeded")
	}

	if err := runDiskCLI(t, data, "commit", "-put", `a={"x":1}`, "-put", "b=bee"); err != nil {
		t.Fatalf("commit 1: %v", err)
	}
	if err := runDiskCLI(t, data, "commit", "-put", `a={"x":2}`, "-del", "b"); err != nil {
		t.Fatalf("commit 2: %v", err)
	}

	// Every invocation is a full close + reopen; reads must serve the
	// committed state.
	for _, cmd := range [][]string{
		{"log"},
		{"get", "-key", "a", "-branch", "main"},
		{"history", "-key", "a"},
		{"stats"},
	} {
		if err := runDiskCLI(t, data, cmd...); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}

	// Version-scan results across reopen: checkout of the tip and of the
	// older version return the exact committed contents.
	out := filepath.Join(dir, "co-tip")
	if err := runDiskCLI(t, data, "checkout", "-branch", "main", "-out", out); err != nil {
		t.Fatalf("checkout tip: %v", err)
	}
	if got, err := os.ReadFile(filepath.Join(out, "a")); err != nil || string(got) != `{"x":2}` {
		t.Fatalf("tip a = %q, %v", got, err)
	}
	if _, err := os.Stat(filepath.Join(out, "b")); err == nil {
		t.Fatal("deleted key b materialized at tip")
	}
	outOld := filepath.Join(dir, "co-old")
	if err := runDiskCLI(t, data, "checkout", "-version", "1", "-out", outOld); err != nil {
		t.Fatalf("checkout old: %v", err)
	}
	if got, err := os.ReadFile(filepath.Join(outOld, "a")); err != nil || string(got) != `{"x":1}` {
		t.Fatalf("old a = %q, %v", got, err)
	}
	if got, err := os.ReadFile(filepath.Join(outOld, "b")); err != nil || string(got) != "bee" {
		t.Fatalf("old b = %q, %v", got, err)
	}

	// Commands before init on a fresh directory fail cleanly.
	if err := runDiskCLI(t, filepath.Join(dir, "nope.d"), "log"); err == nil {
		t.Fatal("log before init succeeded")
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "x.rstore")
	// Commands before init fail cleanly.
	if err := runCLI(t, store, "log"); err == nil {
		t.Fatal("log before init succeeded")
	}
	if err := runCLI(t, store); err == nil || !strings.Contains(err.Error(), "command") {
		t.Fatalf("missing command: %v", err)
	}
	if err := runCLI(t, store, "bogus"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := run(context.Background(), []string{"-backend", "bogus", "log"}); err == nil || !strings.Contains(err.Error(), "backend") {
		t.Fatalf("unknown backend: %v", err)
	}
	if err := runCLI(t, store, "init"); err != nil {
		t.Fatal(err)
	}
	if err := runCLI(t, store, "commit", "-put", "malformed"); err == nil {
		t.Fatal("malformed -put accepted")
	}
	if err := runCLI(t, store, "get", "-key", "a"); err == nil {
		t.Fatal("get without version/branch accepted")
	}
	if err := runCLI(t, store, "checkout"); err == nil {
		t.Fatal("checkout without version accepted")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a/b\\c"); got != "a_b_c" {
		t.Fatalf("sanitize = %q", got)
	}
}
