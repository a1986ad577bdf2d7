package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// captureStdout runs f with os.Stdout redirected to a file and returns what
// it printed.
func captureStdout(t *testing.T, f func()) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = old }()
	f()
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestIncastOutput pins the example's complete output: both schemes'
// message completion times, timeout counts and drop counters.
func TestIncastOutput(t *testing.T) {
	const want = "913a35139af11ff3e91e383e928fba9f9b05778eb520a17eaa57cb78243059b1"
	out := captureStdout(t, main)
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("output digest %s, pinned %s; output:\n%s", got, want, out)
	}
}
