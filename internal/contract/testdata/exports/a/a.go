// Package a declares the exports TestUnusedExportsFixture checks.
package a

// Queue's Len has a namesake in package b that b calls, but nothing
// calls Queue's own: the check flags it.
type Queue struct{ items []int }

func (q *Queue) Len() int { return len(q.items) }

func (q *Queue) Push(v int) { q.items = append(q.items, v) }

// Sizer is the interface b calls Box.Size through.
type Sizer interface{ Size() int }

type Box struct{}

// Size is only reached through Sizer: the check passes it.
func (Box) Size() int { return 1 }

// Used is named in b; Unused is named nowhere, and the check flags it.
const (
	Used   = 2
	Unused = 3
)
