package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"repro/internal/commut"
	"repro/internal/core"
	"repro/internal/txn"
)

// The cooperative-editing scenario from the paper's introduction: several
// authors edit one document concurrently. With semantic (section-keyed)
// locking, edits of distinct sections commute; with whole-object 2PL the
// document serializes every author ("he must wait until the document is
// released — and perhaps the idea has flown away").

// DocumentType is the object type of documents.
const DocumentType = "document"

// DocSpec: edits of distinct sections commute, reads commute with reads,
// readAll conflicts with edits.
func DocSpec() commut.Spec {
	base := commut.NewMatrix().
		SetCommutes("readAll", "readAll").
		SetConflicts("readAll", "edit")
	spec := commut.NewParamSpec(base)
	spec.Rule("edit", "edit", commut.DistinctFirstParam)
	spec.Rule("edit", "read", commut.DistinctFirstParam)
	spec.Rule("read", "read", func(a, b commut.Invocation) bool { return true })
	spec.Rule("read", "readAll", func(a, b commut.Invocation) bool { return true })
	return spec
}

// CoEditConfig drives the cooperative-editing workload.
type CoEditConfig struct {
	// Engine configures the engine the run opens (see Config.Engine). The
	// runner overrides Engine.DisableTrace — the trace is recorded iff
	// Validate is set — and turns a zero LockTimeout into 10s.
	Engine core.Options
	// Authors is the number of concurrent writers.
	Authors int
	// EditsPerAuthor is the number of edit transactions per author.
	EditsPerAuthor int
	// Sections is the number of document sections.
	Sections int
	// EditWork simulates thinking/typing time inside each edit.
	EditWork   time.Duration
	Seed       int64
	Validate   bool
	MaxRetries int
}

// installDocument registers the document type; sections map to pages.
func installDocument(db *core.DB, sections int) (txn.OID, error) {
	pages := make([]txn.OID, sections)
	for i := range pages {
		pages[i] = db.AllocPage()
	}
	work := func(d time.Duration) {
		if d > 0 {
			time.Sleep(d)
		}
	}
	typ := &core.ObjectType{
		Name: DocumentType,
		Spec: DocSpec(),
		ReadOnly: map[string]bool{
			"read":    true,
			"readAll": true,
		},
		Methods: map[string]core.MethodFunc{
			// edit(section, text): read-modify-write of the section page.
			"edit": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				if len(params) != 3 {
					return "", fmt.Errorf("coedit: edit needs section, text, workns")
				}
				idx, err := sectionIndex(params[0], len(pages))
				if err != nil {
					return "", err
				}
				old, err := c.Call(pages[idx], "readx")
				if err != nil {
					return "", err
				}
				ns, _ := strconv.ParseInt(params[2], 10, 64)
				work(time.Duration(ns))
				if _, err := c.Call(pages[idx], "write", params[1]); err != nil {
					return "", err
				}
				return old, nil
			},
			"read": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				if len(params) != 1 {
					return "", fmt.Errorf("coedit: read needs a section")
				}
				idx, err := sectionIndex(params[0], len(pages))
				if err != nil {
					return "", err
				}
				return c.Call(pages[idx], "read")
			},
			"readAll": func(c *core.Ctx, self txn.OID, params []string) (string, error) {
				out := ""
				for _, pg := range pages {
					s, err := c.Call(pg, "read")
					if err != nil {
						return "", err
					}
					out += s + "\n"
				}
				return out, nil
			},
		},
		Compensate: map[string]core.CompensateFunc{
			// edit returns the previous text; re-edit restores it.
			"edit": func(params []string, result string) (string, []string, bool) {
				return "edit", []string{params[0], result, "0"}, true
			},
		},
	}
	if err := db.RegisterType(typ); err != nil {
		return txn.OID{}, err
	}
	return txn.OID{Type: DocumentType, Name: "Paper"}, nil
}

func sectionIndex(s string, n int) (int, error) {
	if idx, ok := core.NameIndex(s, "sec"); ok && idx < uint64(n) {
		return int(idx), nil
	}
	return 0, fmt.Errorf("coedit: bad section %q", s)
}

// RunCoEdit executes the cooperative-editing workload.
func RunCoEdit(cfg CoEditConfig) (Result, error) {
	if cfg.Authors <= 0 {
		cfg.Authors = 4
	}
	if cfg.EditsPerAuthor <= 0 {
		cfg.EditsPerAuthor = 20
	}
	if cfg.Sections <= 0 {
		cfg.Sections = 16
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 50
	}
	db, closeDB, err := openDB(cfg.Engine, cfg.Validate)
	if err != nil {
		return Result{}, err
	}
	defer closeDB()
	doc, err := installDocument(db, cfg.Sections)
	if err != nil {
		return Result{}, err
	}
	// Initialize the sections.
	for i := 0; i < cfg.Sections; i++ {
		if err := execRetry(db, doc, cfg.MaxRetries, nil, "edit", fmt.Sprintf("sec%d", i), "draft", "0"); err != nil {
			return Result{}, err
		}
	}
	preLock := db.LockStats()
	preEng := db.Stats()

	elapsed, retries, err := closedLoop(cfg.Authors, cfg.EditsPerAuthor, cfg.Seed, 104729,
		func(a int, rr *rand.Rand) func(int, *int64) error {
			return func(i int, retries *int64) error {
				// Authors mostly work in their own sections, occasionally
				// crossing into a neighbour's.
				sec := a % cfg.Sections
				if rr.Intn(10) == 0 {
					sec = rr.Intn(cfg.Sections)
				}
				return execRetry(db, doc, cfg.MaxRetries, retries, "edit",
					fmt.Sprintf("sec%d", sec),
					fmt.Sprintf("a%d-rev%d", a, i),
					fmt.Sprintf("%d", cfg.EditWork.Nanoseconds()))
			}
		})
	if err != nil {
		return Result{}, err
	}
	return finishResult(db, "coedit", cfg.Engine.Protocol, cfg.Authors, cfg.Validate, elapsed, retries, preLock, preEng)
}
