package uae

import (
	"flag"
	"fmt"
	"os"
	"testing"
)

// shortTests are the tests cheap enough for -short: one tiny model each.
// Every other test here trains models for seconds at a time, which is what
// -short (notably the CI race pass) exists to avoid.
const shortTests = "^TestSameSeedBitIdentical$"

// TestMain restricts a -short run without its own -run pattern to
// shortTests.
func TestMain(m *testing.M) {
	flag.Parse()
	if testing.Short() && flag.Lookup("test.run").Value.String() == "" {
		if err := flag.Set("test.run", shortTests); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	os.Exit(m.Run())
}
