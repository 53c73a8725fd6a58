// Cooperative editing: the motivating scenario from the paper's
// introduction — several authors editing one document concurrently ("if
// another author edits the document simultaneously he must wait until the
// document is released, and perhaps the idea has flown away").
//
// The program runs the same six-author editing session twice: once under
// whole-document two-phase locking (authors serialize) and once under the
// paper's semantic locking (edits of distinct sections commute), then
// prints the comparison.
//
//	go run ./examples/coediting
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

func main() {
	run := func(p core.ProtocolKind) workload.Result {
		res, err := workload.RunCoEdit(workload.CoEditConfig{
			Engine:         core.Options{Protocol: p, PageIODelay: 10 * time.Microsecond},
			Authors:        6,
			EditsPerAuthor: 20,
			Sections:       12,
			EditWork:       500 * time.Microsecond, // thinking/typing time
			Seed:           42,
			Validate:       true,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Println("six authors, 20 edits each, 12 sections, one shared document")
	fmt.Println()
	docLock := run(core.Protocol2PLObject)
	semantic := run(core.ProtocolOpenNested)

	fmt.Println(workload.Table([]workload.Result{docLock, semantic}))
	fmt.Printf("document-level 2PL: every edit locks the whole document; authors wait %s in total.\n",
		docLock.WaitTime.Round(time.Millisecond))
	fmt.Printf("section semantics:  edits of distinct sections commute; total wait %s.\n",
		semantic.WaitTime.Round(time.Millisecond))
	if semantic.Throughput > docLock.Throughput {
		fmt.Printf("\nsemantic concurrency control is %.1fx faster on this session —\n",
			semantic.Throughput/docLock.Throughput)
		fmt.Println("and both schedules validate as oo-serializable:",
			docLock.OOSerializable && semantic.OOSerializable)
	}
}
