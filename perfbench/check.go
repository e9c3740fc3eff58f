package main

import (
	"embed"
	"fmt"
	"os"
	"strings"
	"sync"

	"repro/internal/capture"
)

// checker is the correctness gate: every check counts as attempted, every
// one that does not hold counts as failed, and fail_frac is their ratio.
// Simulated statistics are never a performance metric; they are what the
// gate checks.
type checker struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string // the first few failures, for the report
}

const maxNotes = 10

// check records one check; ok=false counts it as failed with the message.
func (c *checker) check(ok bool, format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < maxNotes {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// conservation checks that every offered packet of one cell is accounted
// for (capture.Stats.CheckConservation).
func (c *checker) conservation(what string, st *capture.Stats) {
	err := st.CheckConservation()
	c.check(err == nil, "%s: %v", what, err)
}

// sameText checks that a rendered table is byte-identical to its
// reference.
func (c *checker) sameText(what, want, got string) {
	c.check(want == got, "%s: render differs from its reference at byte %d (%d vs %d bytes)",
		what, firstDiff(want, got), len(want), len(got))
}

func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// failFrac is failed ÷ attempted.
func (c *checker) failFrac() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ratio(float64(c.failed), float64(c.attempted))
}

func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// references holds each workload's rendered tables at seed 1 and the
// workload's own size, one file per experiment, recorded from the
// simulator as it stood when the benchmark was defined. Simulated results
// must stay identical, so every run compares against them; the
// renders of other seeds are checked only against each other.
//
//go:embed testdata
var references embed.FS

func reference(workload, id string) (string, error) {
	b, err := references.ReadFile(referencePath(workload, id))
	return string(b), err
}

func referencePath(workload, id string) string {
	return "testdata/" + workload + "/" + id + ".txt"
}

// goldenSection returns the body of one experiment's section of a
// results file written by `experiment -all`: the lines after the
// "==== <id> (...) ====" header up to the next header, which is the
// rendered table plus the blank separator line.
func goldenSection(path, id string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	text := string(data)
	head := "==== " + id + " ("
	start := 0
	for {
		i := strings.Index(text[start:], head)
		if i < 0 {
			return "", fmt.Errorf("%s: no section for %s", path, id)
		}
		start += i
		if start == 0 || text[start-1] == '\n' {
			break
		}
		start += len(head)
	}
	nl := strings.IndexByte(text[start:], '\n')
	if nl < 0 {
		return "", fmt.Errorf("%s: truncated header for %s", path, id)
	}
	body := text[start+nl+1:]
	if end := strings.Index(body, "\n==== "); end >= 0 {
		body = body[:end+1]
	}
	return body, nil
}
