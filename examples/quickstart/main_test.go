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

// TestQuickstartOutput pins the example's complete output: the fabric line,
// both flows' completion times and the transfer efficiency.
func TestQuickstartOutput(t *testing.T) {
	const want = "5d2017e9f9c8d8339aab339f8b234249fae1091798b1fb4fcb51917f14360632"
	out := captureStdout(t, main)
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("output digest %s, pinned %s; output:\n%s", got, want, out)
	}
}
