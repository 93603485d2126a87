package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets a test run the command itself: with IAMCTL_RUN_MAIN set,
// the test binary is iamctl.
func TestMain(m *testing.M) {
	if os.Getenv("IAMCTL_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSaveFailureKeepsOldModel: `iamctl train -save F` writes F through a
// temp file and a rename. When F.tmp is a directory the save must fail with
// exit status 1 and leave F's previous bytes in place; a save that writes F
// directly would succeed.
func TestSaveFailureKeepsOldModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model")
	old := []byte("previous model")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "train", "-dataset", "twi", "-rows", "300", "-epochs", "2", "-save", path)
	cmd.Env = append(os.Environ(), "IAMCTL_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("iamctl train -save into a blocked path: err %v, want exit status 1; output:\n%s", err, out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("%s holds %d new bytes, want the previous model", path, len(got))
	}
}
