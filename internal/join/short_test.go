package join

import (
	"flag"
	"fmt"
	"os"
	"testing"
)

// shortTests are the tests cheap enough for -short: tiny models whose
// determinism and locking checks must run in the CI race pass too. Every
// other test here trains models for seconds at a time, which is what -short
// exists to avoid.
const shortTests = "^(TestSameSeedBitIdentical|TestConcurrentEstimateCardBatch)$"

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
