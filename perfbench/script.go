package main

import (
	"math/rand/v2"
)

// Op scripts are generated from the seed before any set-up, and only the
// generated ops reach the program. Every insert is paired with a delete
// of the same width, so document sizes (and with them per-op cost and
// retained state) stay the same from run to run.

type stepKind uint8

const (
	stIns   stepKind = iota // Client.Insert, one round trip
	stDel                   // Client.Delete, one round trip
	stGet                   // Client.Get, one round trip
	stQIns                  // Client.QueueInsert, acked by the next flush
	stQDel                  // Client.QueueDelete, acked by the next flush
	stFlush                 // Client.Flush
)

var stepSpan = [...]string{
	stIns:   "collab.ins",
	stDel:   "collab.del",
	stGet:   "collab.get",
	stQIns:  "collab.queue_ins",
	stQDel:  "collab.queue_del",
	stFlush: "collab.flush",
}

type step struct {
	kind stepKind
	pos  int
	n    int    // DEL width
	text string // INS text
}

// cycle is one USE of a document followed by steps on it.
type cycle struct {
	doc   int
	steps []step
}

// ops counts the client ops a cycle acks: the USE, every round trip and
// every queued op (acked by its flush); the flush itself is not an op.
func (c cycle) ops() int {
	n := 1
	for _, s := range c.steps {
		if s.kind != stFlush {
			n++
		}
	}
	return n
}

// editWidth is the rune width of every insert and delete.
const editWidth = 2

const letters = "abcdefghijklmnopqrstuvwxyz"

func randText(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.IntN(len(letters))]
	}
	return string(b)
}

// model is the client-side replay of an exclusively owned document. The
// generator draws positions against it, so positions are always in range
// and no delete is ever clamped; the model's final state is the expected
// final document.
type model struct {
	runes []rune
}

func (m *model) insert(pos int, s string) {
	r := []rune(s)
	m.runes = append(m.runes[:pos], append(r, m.runes[pos:]...)...)
}

func (m *model) delete(pos, n int) {
	m.runes = append(m.runes[:pos], m.runes[pos+n:]...)
}

// smallCycle is a spine_small cycle on an owned document: 4 queued
// inserts and 4 queued deletes at seeded positions, one flush.
func smallCycle(rng *rand.Rand, doc int, m *model) cycle {
	c := cycle{doc: doc}
	for range 4 {
		pos := rng.IntN(len(m.runes) + 1)
		text := randText(rng, editWidth)
		m.insert(pos, text)
		c.steps = append(c.steps, step{kind: stQIns, pos: pos, text: text})
	}
	for range 4 {
		pos := rng.IntN(len(m.runes) - editWidth + 1)
		m.delete(pos, editWidth)
		c.steps = append(c.steps, step{kind: stQDel, pos: pos, n: editWidth})
	}
	c.steps = append(c.steps, step{kind: stFlush})
	return c
}

// mixCycle exercises every client call once on an owned document: direct
// insert, delete and get, then a queued insert and delete and a flush.
// The traced run appends a few so each call has spans on every workload.
func mixCycle(rng *rand.Rand, doc int, m *model) cycle {
	c := cycle{doc: doc}
	pos := rng.IntN(len(m.runes) + 1)
	text := randText(rng, editWidth)
	m.insert(pos, text)
	c.steps = append(c.steps, step{kind: stIns, pos: pos, text: text})
	pos = rng.IntN(len(m.runes) - editWidth + 1)
	m.delete(pos, editWidth)
	c.steps = append(c.steps, step{kind: stDel, pos: pos, n: editWidth}, step{kind: stGet})
	pos = rng.IntN(len(m.runes) + 1)
	text = randText(rng, editWidth)
	m.insert(pos, text)
	c.steps = append(c.steps, step{kind: stQIns, pos: pos, text: text})
	pos = rng.IntN(len(m.runes) - editWidth + 1)
	m.delete(pos, editWidth)
	c.steps = append(c.steps, step{kind: stQDel, pos: pos, n: editWidth}, step{kind: stFlush})
	return c
}

// sharedRange is the band of positions one session may delete in on a
// document both sessions edit. The bands are half a document apart, so
// two concurrent deletes never overlap (an overlap would let OT shrink
// one of them, and the final length would no longer be predictable);
// every band ends editWidth before the base length, and the document
// never drops below its base length, so no delete is ever clamped.
func sharedRange(sess, base int) (lo, hi int) {
	quarter := base / 4
	if sess == 0 {
		return 0, quarter
	}
	return base - quarter, base - editWidth + 1
}

// bigCycle is a spine_bigdoc cycle on a shared document: INS, DEL, GET,
// INS, DEL, GET, each its own round trip.
func bigCycle(rng *rand.Rand, sess, doc, base int) cycle {
	c := cycle{doc: doc}
	lo, hi := sharedRange(sess, base)
	for range 2 {
		c.steps = append(c.steps,
			step{kind: stIns, pos: rng.IntN(base + 1), text: randText(rng, editWidth)},
			step{kind: stDel, pos: lo + rng.IntN(hi-lo), n: editWidth},
			step{kind: stGet})
	}
	return c
}

// sharedMixCycle is mixCycle for a shared document, with deletes drawn
// from the session's band.
func sharedMixCycle(rng *rand.Rand, sess, doc, base int) cycle {
	c := cycle{doc: doc}
	lo, hi := sharedRange(sess, base)
	c.steps = append(c.steps,
		step{kind: stIns, pos: rng.IntN(base + 1), text: randText(rng, editWidth)},
		step{kind: stDel, pos: lo + rng.IntN(hi-lo), n: editWidth},
		step{kind: stGet},
		step{kind: stQIns, pos: rng.IntN(base + 1), text: randText(rng, editWidth)},
		step{kind: stQDel, pos: lo + rng.IntN(hi-lo), n: editWidth},
		step{kind: stFlush})
	return c
}
