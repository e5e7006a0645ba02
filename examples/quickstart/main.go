// Quickstart: build the synthetic study and render a handful of the
// paper's headline results through the public vmp API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"vmp"
)

func main() {
	// Stride 6 thins the bi-weekly schedule (~10 snapshots instead of
	// 59) so the quickstart finishes in a couple of seconds; drop it
	// for the full 27-month study.
	study := vmp.New(vmp.Config{SnapshotStride: 6, QoESessions: 60})

	fmt.Println("== Understanding Video Management Planes: reproduction quickstart ==")
	fmt.Println()
	for _, id := range []string{"tab1", "2b", "6a", "11b", "13a", "18"} {
		if err := study.Render(os.Stdout, id); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	ds := study.Dataset()
	viewHours := 0.0
	for i := 0; i < ds.Len(); i++ {
		viewHours += ds.ViewHoursAt(i)
	}
	fmt.Printf("dataset: %d sampled view records, %.0f view-hours represented\n", ds.Len(), viewHours)
	fmt.Println("run `vmpstudy -figure all` for every table and figure")
}
