package core

import (
	"github.com/g-rpqs/rlc-go/internal/graph"
	"github.com/g-rpqs/rlc-go/internal/labelseq"
)

// committer applies the speculations of one parallel build to the live
// index in rank order. It wraps the committer builder (the one whose
// in/out lists freeze will compact) with the undo log that makes a replay
// abortable.
type committer struct {
	b    *builder
	undo []undoRec
}

// undoRec identifies one entry appended by the current replay: appends are
// strictly list tails, so undoing is truncation by one.
type undoRec struct {
	y   graph.Vertex
	dir direction
}

// validate reports whether a speculation's trajectory is still exact: true
// iff none of the entry lists it read were appended to by a commit at or
// after its snapshot round. The trajectory of a KBS pair is a deterministic
// function of the graph, the ranks, and the lists it read — if those lists
// are untouched, the sequential build arriving at this commit slot would
// visit the same states, issue the same insert attempts, and take the same
// prune decisions.
//
// (Dictionary growth since the snapshot is harmless and not tracked: a
// code interned after the snapshot can only change an insert's PR1/dup
// outcome through entries that carry its ID, and such entries live only in
// lists stamped dirty since the snapshot.)
func (c *committer) validate(r *specResult, snap uint64) bool {
	b := c.b
	for _, pr := range r.reads {
		v := graph.Vertex(pr >> 1)
		if side(pr&1) == outSide {
			if b.dirtyOut[v] >= snap {
				return false
			}
		} else if b.dirtyIn[v] >= snap {
			return false
		}
	}
	return true
}

// apply replays a validated speculation's buffered inserts onto the live
// index in trajectory order, re-running the full PR2/PR1/dup checks against
// the live lists and interning minimum repeats in exactly the order the
// sequential build would. For a validated speculation every re-check
// resolves to inserted; should one diverge regardless, the replay is undone
// entry by entry — including the dictionary interns — and apply returns
// false so the scheduler falls back to the sequential re-run.
func (c *committer) apply(r *specResult) bool {
	b := c.b
	c.undo = c.undo[:0]
	dictLen0 := b.ix.dict.Len()
	// The inserts are ordered backward KBS first, then forward; the fixed
	// PR1 operand switches with the direction, exactly as in kbs.
	const noDir = direction(255)
	cur := noDir
	for i := range r.inserts {
		ins := &r.inserts[i]
		if ins.dir != cur {
			cur = ins.dir
			b.loadFixedSet(r.v, cur)
		}
		if st := b.insertCore(ins.y, r.v, ins.dir, r.mr(ins), ins.mrCode); st != inserted {
			c.rollback(dictLen0)
			return false
		}
		c.undo = append(c.undo, undoRec{y: ins.y, dir: ins.dir})
	}
	return true
}

// rollback undoes the current replay: appended entries are truncated off
// their lists in reverse order and the dictionary is cut back to its length
// at replay start — which can retire the ID the builder remembers from its
// last dictionary lookup, so that goes too. Dirty stamps set by the undone
// appends are left in place — over-invalidation only costs a re-run, never
// correctness.
func (c *committer) rollback(dictLen0 int) {
	b := c.b
	for i := len(c.undo) - 1; i >= 0; i-- {
		u := c.undo[i]
		if u.dir == backward {
			l := b.out[u.y]
			b.out[u.y] = l[:len(l)-1]
		} else {
			l := b.in[u.y]
			b.in[u.y] = l[:len(l)-1]
		}
	}
	b.ix.dict.TruncateTo(dictLen0)
	b.knownID = labelseq.InvalidID
}
