// Custom data: bring-your-own-CSV workflow — export a table, re-import it
// with schema inference, train IAM, persist the model, and reload it for
// estimation. This is the full lifecycle a downstream user of the library
// walks through.
//
//	go run ./examples/customdata
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"

	"iam/internal/atomicfile"
	"iam/internal/core"
	"iam/internal/dataset"
	"iam/internal/query"
)

func main() {
	dir, err := os.MkdirTemp("", "iam-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Pretend this CSV came from the user's pipeline.
	csvPath := filepath.Join(dir, "sensors.csv")
	src := dataset.SynthWISDM(6000, 99)
	// Atomic write: a crash mid-export can never leave a torn CSV behind.
	if err := atomicfile.WriteFile(csvPath, func(w io.Writer) error {
		return dataset.WriteCSV(src, w)
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d rows)\n", csvPath, src.NumRows())

	// 2. Import with schema inference: numeric columns with few distinct
	//    values become categorical, the rest stay continuous.
	f, err := os.Open(csvPath)
	if err != nil {
		log.Fatal(err)
	}
	table, err := dataset.ReadCSV("sensors", f, dataset.CSVOptions{CategoricalMaxDistinct: 64})
	_ = f.Close() // read-only descriptor; nothing to lose
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range table.Columns {
		fmt.Printf("  inferred %-14s %-11s distinct=%d\n", c.Name, c.Kind, c.DistinctCount())
	}

	// 3. Train and persist.
	model, err := core.Train(table, core.Config{Epochs: 5, Hidden: []int{64, 32, 32, 64}, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	modelPath := filepath.Join(dir, "sensors.iam")
	// Atomic write: a crash mid-save can never leave a torn model file.
	if err := atomicfile.WriteFile(modelPath, model.Save); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(modelPath)
	fmt.Printf("saved model to %s (%d KB on disk)\n", modelPath, info.Size()/1024)

	// 4. Reload and estimate — e.g. inside a query optimizer process.
	mf, err := os.Open(modelPath)
	if err != nil {
		log.Fatal(err)
	}
	loaded, err := core.Load(mf, table)
	_ = mf.Close() // read-only descriptor; nothing to lose
	if err != nil {
		log.Fatal(err)
	}
	q, err := query.Parse(table, "x >= 0 AND activity_code <= 5")
	if err != nil {
		log.Fatal(err)
	}
	est, err := loaded.Estimate(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sel(%s): est=%.4f actual=%.4f\n", q, est, query.Exec(q))
}
