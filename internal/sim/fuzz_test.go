package sim

import (
	"reflect"
	"testing"
)

// schedTrace is the observable history of one scheduler interpreting an op
// program: every firing as (label, time, firedSoFar), every NextEventTime
// read (-1 when nothing is pending), plus Pending and Now after every op.
// Two schedulers are equivalent iff their traces are identical.
type schedTrace struct {
	Fires    [][3]int64
	Nexts    []Time
	Pendings []int
	Nows     []Time
}

// runSchedProgram interprets prog on an engine with the given scheduler and
// fails t as soon as CheckInvariants reports a fault after an op.
// Opcodes (byte % 14), with operands drawn from following bytes:
//
//	0: schedule at now+delta (delta exponential in one byte, reaching wheel
//	   levels 0 through 8)
//	1: cancel the k-th live handle
//	2: RunUntil(now+delta)
//	3: reset the shared rearmable timer to now+delta
//	4: stop the shared timer
//	5: schedule at now (zero delay)
//	6: schedule at now+delta stamped as if scheduled at now/2 (a backdated
//	   AtHandlerFrom, which fires before same-instant events stamped later)
//	7: read NextEventTime into the trace
//	8: reserve a stamp now
//	9: schedule at now+delta holding the k-th reserved stamp (it fires
//	   where an event scheduled at the reservation would have)
//	10: schedule A and then B at now+delta with a stamp reserved between
//	   them; when A fires, its handler schedules at its own instant holding
//	   that stamp, which has not passed and must fire before B, still
//	   waiting in A's dispatch batch
//	11: schedule at now+2^(54 + arg%9), on wheel level 9 or 10, unless that
//	   would pass MaxTime
//	12: schedule at the edge of the near window a pop at now leaves: the
//	   start of now's bucket plus 2^22, give or take 8 ps (arg%16 - 8)
//	13: schedule A at now+delta, then B and C up to 4 and 2 ps later; when
//	   A fires, it cancels B, which shares A's bucket and so its dispatch
//	   batch unless the three straddle a bucket boundary
func runSchedProgram(t testing.TB, kind SchedulerKind, prog []byte) schedTrace {
	t.Helper()
	e := NewEngineWith(kind)
	var tr schedTrace
	var handles []Handle
	var stamps []Stamp
	label := int64(0)

	var tm Timer
	tm.Init(e, func() { tr.Fires = append(tr.Fires, [3]int64{-1, int64(e.Now()), int64(e.Fired())}) })

	record := func(lbl int64) func() {
		return func() { tr.Fires = append(tr.Fires, [3]int64{lbl, int64(e.Now()), int64(e.Fired())}) }
	}
	delta := func(b byte) Duration {
		// Exponential spread: shifts 0..51 cover levels 0 through 8.
		return (Duration(1) << (b % 52)) + Duration(b%7)
	}
	checked := func(step int) {
		if err := e.CheckInvariants(); err != nil {
			t.Fatalf("%s: after op %d of %v: %v", kind, step, prog, err)
		}
	}

	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i], prog[i+1]
		switch op % 14 {
		case 0:
			label++
			handles = append(handles, e.At(e.Now().Add(delta(arg)), record(label)))
		case 1:
			if len(handles) > 0 {
				k := int(arg) % len(handles)
				handles[k].Cancel()
				handles = append(handles[:k], handles[k+1:]...)
			}
		case 2:
			e.RunUntil(e.Now().Add(delta(arg)))
		case 3:
			tm.Reset(delta(arg))
		case 4:
			tm.Stop()
		case 5:
			label++
			handles = append(handles, e.At(e.Now(), record(label)))
		case 6:
			label++
			handles = append(handles, e.AtHandlerFrom(e.Now().Add(delta(arg)), e.Now()/2, funcHandler(record(label))))
		case 7:
			next, ok := e.NextEventTime()
			if !ok {
				next = -1
			}
			tr.Nexts = append(tr.Nexts, next)
		case 8:
			stamps = append(stamps, e.Reserve())
		case 9:
			if len(stamps) > 0 {
				k := int(arg) % len(stamps)
				label++
				handles = append(handles, e.AtStamped(e.Now().Add(delta(arg)), stamps[k], funcHandler(record(label))))
				stamps = append(stamps[:k], stamps[k+1:]...)
			}
		case 10:
			at := e.Now().Add(delta(arg))
			label += 3
			a, s, b := label-2, label-1, label
			var mid Stamp
			handles = append(handles, e.At(at, func() {
				record(a)()
				e.AtStamped(e.Now(), mid, funcHandler(record(s)))
			}))
			mid = e.Reserve()
			handles = append(handles, e.At(at, record(b)))
		case 11:
			if d := Time(1) << (54 + arg%9); e.Now() <= MaxTime-d {
				label++
				handles = append(handles, e.At(e.Now()+d, record(label)))
			}
		case 12:
			at := e.Now()&^(1<<bucketBits-1) + nearSpan + Time(arg%16) - 8
			label++
			handles = append(handles, e.At(max(at, e.Now()), record(label)))
		case 13:
			at := e.Now().Add(delta(arg))
			label += 3
			a, b, c := label-2, label-1, label
			var hb Handle
			handles = append(handles, e.At(at, func() {
				record(a)()
				hb.Cancel()
			}))
			hb = e.At(at+Time(arg%5), record(b))
			handles = append(handles, e.At(at+Time(arg%3), record(c)))
		}
		tr.Pendings = append(tr.Pendings, e.Pending())
		tr.Nows = append(tr.Nows, e.Now())
		checked(i / 2)
	}
	e.Run()
	tr.Pendings = append(tr.Pendings, e.Pending())
	tr.Nows = append(tr.Nows, e.Now())
	checked(len(prog) / 2)
	return tr
}

// schedSeeds is the hand-written corpus that FuzzSchedulerEquivalence starts
// from and TestSchedulerEquivalenceSeeds replays. Each is a list of (opcode,
// operand) pairs for runSchedProgram.
var schedSeeds = [][]byte{
	{0, 10, 0, 10, 2, 20},                      // same-time pair, then run
	{0, 1, 0, 48, 1, 0, 2, 50},                 // level 8 + cancel
	{3, 9, 2, 3, 3, 12, 2, 40, 4, 0},           // timer rearm across levels
	{5, 0, 5, 0, 2, 1, 0, 30, 1, 1, 2, 51},     // zero-delay batch
	{0, 12, 0, 24, 0, 36, 0, 51, 2, 13, 2, 37}, // one event per tier
	{0, 6, 1, 0, 0, 6, 1, 0, 0, 6, 2, 8, 0, 6}, // churny cancel/replace

	// Two events at 1027 and 1030 share near-tier bucket 1, [1024, 2048).
	// RunUntil(514) stops short of the bucket, so the window stays put; a
	// zero-delay event at 514 follows. RunUntil(1026) then turns the bucket
	// into the dispatch batch but stops before its earliest key; another
	// zero-delay event at 1026 joins the batch ahead of the bucket's two.
	{0, 10, 0, 62, 2, 9, 5, 0, 7, 0, 2, 217, 5, 0, 7, 0},

	// A lone event at 8198 in bucket 8: RunUntil(4101) must leave it
	// pending, the next RunUntil pops it directly. Then a plain and a
	// backdated event share one instant about 1 µs ahead and fire backdated
	// first.
	{0, 13, 2, 12, 7, 0, 2, 14, 0, 20, 6, 20, 7, 0, 2, 21},

	// Two far-tier level-8 events (2^49 and 2^50+1, slots 2 and 4) behind
	// one near event: once it has fired, RunUntil stops short of both, and
	// the next RunUntil jumps the window to each in turn, the lone resident
	// of its slot.
	{0, 49, 0, 50, 0, 3, 2, 4, 2, 30, 7, 0, 2, 51, 5, 0, 7, 0},

	// A and B share instant 37 with a stamp reserved between them: A's
	// handler schedules at 37 holding it, into the live batch ahead of B.
	{10, 5, 2, 10},

	// Two such triples at one instant: the first reserved stamp walks back
	// past B1, A2 and B2 to the head of the batch, the second past B2 only.
	{10, 5, 10, 5, 7, 0, 2, 10},

	// B canceled: A pops alone, and its stamped event goes to its bucket
	// rather than a batch. Then, at 1027, a zero-delay event and a triple
	// one tick later.
	{10, 5, 1, 1, 2, 10, 10, 0, 5, 0, 2, 1},

	// Reserved stamps used later: one at an instant (1027) it shares with a
	// plain event scheduled after the reservation (the stamped one fires
	// first), one about 1 µs ahead after time has moved on.
	{8, 0, 8, 0, 0, 10, 9, 10, 2, 11, 9, 20, 7, 0, 2, 21},

	// Far-tier events at 2^54 (level 9) and 2^62 (level 10, slot 4) behind
	// one at 11. After that one fires, 2^62+11 joins 2^62 in slot 4 and
	// 2^61+11 takes slot 2. Canceling 2^54 leaves NextEventTime to read
	// slot 2, canceling 2^61+11 leaves it to scan slot 4, and the drain
	// cascades slot 4 through the top level's window mask.
	{0, 3, 11, 0, 11, 8, 2, 3, 11, 8, 11, 7, 1, 1, 7, 0, 1, 3, 7, 0},

	// Two events at 2^55 share a far-tier level-9 slot behind one at 11:
	// the drain cascades them into one level-0 slot, which hands them over
	// in either order, and their bucket's batch fires them in seq order.
	{0, 3, 11, 1, 11, 1, 7, 0, 2, 3, 7, 0},

	// The near window's last instant and the one after it, 2^22-1 in the
	// near tier and 2^22 in the far tier; then, once the clock has moved,
	// the same pair at the edge of the new window.
	{12, 7, 12, 8, 7, 0, 2, 22, 0, 9, 2, 3, 12, 7, 12, 8, 7, 0, 2, 23},

	// A at 1027 cancels B at the same instant from inside their batch,
	// and C at 1028 still fires; then two such triples in one bucket.
	{13, 10, 2, 11, 13, 12, 13, 12, 7, 0, 2, 13},
}

// FuzzSchedulerEquivalence replays random schedule/cancel/reset/advance
// programs on the heap and the two tiers and requires identical firing
// sequences, identical NextEventTime reads, identical Pending()/Now() after
// every step and clean invariants on both — the differential proof that the
// two tiers are a drop-in replacement for the reference heap.
func FuzzSchedulerEquivalence(f *testing.F) {
	for _, prog := range schedSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		heapTr := runSchedProgram(t, SchedHeap, prog)
		wheelTr := runSchedProgram(t, SchedWheel, prog)
		if !reflect.DeepEqual(heapTr.Fires, wheelTr.Fires) {
			t.Fatalf("firing sequences diverge:\nheap:  %v\nwheel: %v", heapTr.Fires, wheelTr.Fires)
		}
		if !reflect.DeepEqual(heapTr.Nexts, wheelTr.Nexts) {
			t.Fatalf("NextEventTime diverges:\nheap:  %v\nwheel: %v", heapTr.Nexts, wheelTr.Nexts)
		}
		if !reflect.DeepEqual(heapTr.Pendings, wheelTr.Pendings) {
			t.Fatalf("Pending() diverges:\nheap:  %v\nwheel: %v", heapTr.Pendings, wheelTr.Pendings)
		}
		if !reflect.DeepEqual(heapTr.Nows, wheelTr.Nows) {
			t.Fatalf("Now() diverges:\nheap:  %v\nwheel: %v", heapTr.Nows, wheelTr.Nows)
		}
	})
}

// TestSchedulerEquivalenceSeeds runs the fuzz seed corpus as a plain test so
// the differential check is part of every `go test` run, not only -fuzz.
func TestSchedulerEquivalenceSeeds(t *testing.T) {
	seeds := append([][]byte(nil), schedSeeds...)
	// A deterministic pseudo-random program sweep on top of the hand seeds.
	state := uint64(0x9e3779b97f4a7c15)
	next := func() byte {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return byte(state)
	}
	for round := 0; round < 50; round++ {
		prog := make([]byte, 64)
		for i := range prog {
			prog[i] = next()
		}
		seeds = append(seeds, prog)
	}
	for i, prog := range seeds {
		heapTr := runSchedProgram(t, SchedHeap, prog)
		wheelTr := runSchedProgram(t, SchedWheel, prog)
		if !reflect.DeepEqual(heapTr, wheelTr) {
			t.Fatalf("seed %d: schedulers diverge on %v\nheap:  %+v\nwheel: %+v", i, prog, heapTr, wheelTr)
		}
	}
}
