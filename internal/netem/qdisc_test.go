package netem

import (
	"testing"
	"testing/quick"

	"github.com/aeolus-transport/aeolus/internal/sim"
)

func dataPkt(flow uint64, size int, scheduled bool) *Packet {
	return &Packet{Type: Data, Flow: flow, PayloadLen: size - FrameOverhead, WireSize: size, Scheduled: scheduled}
}

func TestFIFOOrderAndLimit(t *testing.T) {
	q := NewQueue(1, 0, 3000)
	a, b, c := dataPkt(1, 1500, false), dataPkt(2, 1500, false), dataPkt(3, 1500, false)
	if q.Enqueue(a, 0) != Queued || q.Enqueue(b, 0) != Queued {
		t.Fatal("enqueue within limit failed")
	}
	if r := q.Enqueue(c, 0); r != DropTailFull {
		t.Fatalf("enqueue over limit = %v, want a tail drop", r)
	}
	if got := q.Dequeue(0); got != a {
		t.Fatalf("first dequeue = %v, want a", got)
	}
	if got := q.Dequeue(0); got != b {
		t.Fatalf("second dequeue = %v, want b", got)
	}
	if got := q.Dequeue(0); got != nil {
		t.Fatalf("dequeue from empty = %v, want nil", got)
	}
}

func TestFIFOUnlimited(t *testing.T) {
	q := NewQueue(1, 0, 0)
	for i := 0; i < 10000; i++ {
		if q.Enqueue(dataPkt(uint64(i), 1538, false), 0) != Queued {
			t.Fatal("unlimited FIFO dropped")
		}
	}
	if q.Backlog().Packets != 10000 {
		t.Fatalf("backlog = %d, want 10000", q.Backlog().Packets)
	}
}

func TestFIFOCompaction(t *testing.T) {
	q := NewQueue(1, 0, 0)
	// Interleave enqueue/dequeue so head grows past the compaction trigger.
	var inFlight int
	for i := 0; i < 50000; i++ {
		q.Enqueue(dataPkt(uint64(i), 100, false), 0)
		inFlight++
		if inFlight > 3 {
			if q.Dequeue(0) == nil {
				t.Fatal("dequeue returned nil with backlog")
			}
			inFlight--
		}
	}
	if got := q.Backlog().Packets; got != inFlight {
		t.Fatalf("backlog = %d, want %d", got, inFlight)
	}
}

func TestSelectiveDropThreshold(t *testing.T) {
	// 6 KB threshold with 1538 B frames: exactly 4 unscheduled fit, 5th dropped.
	q := NewQueue(1, 6000, DefaultBuffer)
	for i := 0; i < 4; i++ {
		if q.Enqueue(dataPkt(uint64(i), 1500, false), 0) != Queued {
			t.Fatalf("unscheduled packet %d below threshold dropped", i)
		}
	}
	if r := q.Enqueue(dataPkt(9, 1500, false), 0); r != DropSelective {
		t.Fatalf("unscheduled packet above threshold = %v, want a selective drop", r)
	}
	// Scheduled packets pass the threshold up to the buffer bound.
	for i := 0; i < 100; i++ {
		if q.Enqueue(dataPkt(uint64(100+i), 1500, true), 0) != Queued {
			t.Fatalf("scheduled packet %d dropped below buffer bound (backlog %v)", i, q.Backlog())
		}
	}
	// Control packets are protected too (§3.3: probes/ACKs are scheduled).
	probe := &Packet{Type: Probe, WireSize: ProbeSize}
	if q.Enqueue(probe, 0) != Queued {
		t.Fatal("control packet dropped by selective dropping")
	}
}

func TestSelectiveDropBufferBound(t *testing.T) {
	q := NewQueue(1, 6000, 10000)
	for i := 0; i < 6; i++ {
		q.Enqueue(dataPkt(uint64(i), 1500, true), 0)
	}
	// 9000 queued; a 1500 B scheduled packet would exceed the 10 KB buffer.
	if r := q.Enqueue(dataPkt(99, 1500, true), 0); r != DropTailFull {
		t.Fatalf("scheduled packet above buffer bound = %v, want a tail drop", r)
	}
}

// Property: in any interleaving of scheduled/unscheduled enqueues, selective
// dropping never discards a scheduled packet while the buffer has room,
// refuses unscheduled packets only as selective drops, and conserves
// packets: enqueued = dequeued + backlog.
func TestSelectiveDropConservationProperty(t *testing.T) {
	prop := func(ops []byte) bool {
		q := NewQueue(1, 6000, 50000)
		accepted, dequeued := 0, 0
		for i, op := range ops {
			switch op % 3 {
			case 0:
				p := dataPkt(uint64(i), 1500, false)
				switch q.Enqueue(p, 0) {
				case Queued:
					accepted++
				case DropSelective:
				default:
					return false
				}
			case 1:
				p := dataPkt(uint64(i), 1500, true)
				if q.Enqueue(p, 0) == Queued {
					accepted++
				} else {
					return false // scheduled must never drop below 50 KB here
				}
				if q.Backlog().Bytes > 50000 {
					return false
				}
			case 2:
				if q.Dequeue(0) != nil {
					dequeued++
				}
			}
			// Scheduled enqueues can push backlog past 50 KB? No: bounded.
			if q.Backlog().Bytes > 50000 {
				return false
			}
		}
		return accepted == dequeued+q.Backlog().Packets
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPrioQdiscStrictOrder(t *testing.T) {
	q := NewQueue(8, 0, DefaultBuffer)
	lo := dataPkt(1, 1500, false)
	lo.Prio = 7
	hi := dataPkt(2, 1500, true)
	hi.Prio = 0
	mid := dataPkt(3, 1500, true)
	mid.Prio = 3
	q.Enqueue(lo, 0)
	q.Enqueue(mid, 0)
	q.Enqueue(hi, 0)
	want := []*Packet{hi, mid, lo}
	for i, w := range want {
		if got := q.Dequeue(0); got != w {
			t.Fatalf("dequeue %d = %v, want %v", i, got, w)
		}
	}
}

func TestPrioQdiscSharedBufferStarvation(t *testing.T) {
	// Reproduce the Table 5 pathology under both band rules: low-priority
	// (unscheduled) packets fill the shared buffer and a high-priority
	// (scheduled) arrival is tail-dropped.
	for _, q := range []*Queue{NewQueue(2, 0, 15380), NewSchedFirstQueue(15380)} {
		for i := 0; i < 10; i++ {
			p := dataPkt(uint64(i), 1538, false)
			p.Prio = 1
			if q.Enqueue(p, 0) != Queued {
				t.Fatalf("low-prio fill %d dropped early", i)
			}
		}
		hi := dataPkt(99, 1538, true)
		hi.Prio = 0
		if r := q.Enqueue(hi, 0); r != DropTailFull {
			t.Fatalf("high-priority packet into a full shared buffer = %v, want a tail drop", r)
		}
	}
}

func TestSchedFirstQueueOrder(t *testing.T) {
	// Scheduled and control packets share band 0 in arrival order; Prio is
	// ignored.
	q := NewSchedFirstQueue(0)
	unsched := dataPkt(1, 1500, false)
	sched := dataPkt(2, 1500, true)
	sched.Prio = 7
	probe := &Packet{Type: Probe, WireSize: ProbeSize, Prio: 5}
	for _, p := range []*Packet{unsched, sched, probe} {
		if q.Enqueue(p, 0) != Queued {
			t.Fatalf("unbounded queue refused %v", p)
		}
	}
	for i, w := range []*Packet{sched, probe, unsched} {
		if got := q.Dequeue(0); got != w {
			t.Fatalf("dequeue %d = %v, want %v", i, got, w)
		}
	}
}

func TestPrioQdiscClampsOutOfRangeBand(t *testing.T) {
	q := NewQueue(2, 0, DefaultBuffer)
	p := dataPkt(1, 100, false)
	p.Prio = 200
	if q.Enqueue(p, 0) != Queued {
		t.Fatal("out-of-range priority dropped")
	}
	if got := q.Dequeue(0); got != p {
		t.Fatal("clamped packet not dequeued")
	}
}

func TestNDPQueueTrims(t *testing.T) {
	q := NewNDPQueue(NDPQueueConfig{Trim: true, DataLimitBytes: 4 * 9000})
	for i := 0; i < 4; i++ {
		if q.Enqueue(dataPkt(uint64(i), 9000, false), 0) != Queued {
			t.Fatalf("data packet %d dropped below limit", i)
		}
	}
	p := dataPkt(9, 9000, false)
	if q.Enqueue(p, 0) != Queued {
		t.Fatal("overflow packet dropped instead of trimmed")
	}
	if !p.Trimmed || p.WireSize != HeaderSize || p.PayloadLen != 0 {
		t.Fatalf("packet not trimmed: %v", p)
	}
	if q.Trimmed() != 1 {
		t.Fatalf("Trimmed() = %d, want 1", q.Trimmed())
	}
	// The trimmed header must come out before the queued data.
	if got := q.Dequeue(0); got != p {
		t.Fatalf("first dequeue = %v, want trimmed header", got)
	}
}

func TestNDPQueueControlPriority(t *testing.T) {
	q := NewNDPQueue(NDPQueueConfig{Trim: true})
	d := dataPkt(1, 9000, false)
	q.Enqueue(d, 0)
	pull := &Packet{Type: Pull, WireSize: HeaderSize}
	q.Enqueue(pull, 0)
	if got := q.Dequeue(0); got != pull {
		t.Fatalf("control packet did not preempt data: got %v", got)
	}
	if got := q.Dequeue(0); got != d {
		t.Fatalf("data lost: got %v", got)
	}
}

func TestNDPQueueSelectiveMode(t *testing.T) {
	// NDP+Aeolus: selective dropping instead of trimming.
	q := NewNDPQueue(NDPQueueConfig{SelectiveThresholdBytes: 6000, DataLimitBytes: DefaultBuffer})
	for i := 0; i < 4; i++ {
		if q.Enqueue(dataPkt(uint64(i), 1500, false), 0) != Queued {
			t.Fatalf("unscheduled %d dropped below threshold", i)
		}
	}
	over := dataPkt(9, 1500, false)
	if r := q.Enqueue(over, 0); r != DropSelective {
		t.Fatalf("unscheduled packet above threshold = %v, want a selective drop", r)
	}
	if over.Trimmed {
		t.Fatal("selective mode trimmed instead of dropping")
	}
	if q.Enqueue(dataPkt(10, 1500, true), 0) != Queued {
		t.Fatal("scheduled packet dropped below data limit")
	}
}

func TestXPassQdiscShaping(t *testing.T) {
	eng := sim.NewEngine()
	link := sim.Rate(10 * sim.Gbps)
	q := NewXPassQdisc(XPassQdiscConfig{CreditRate: CreditRateFor(link)})
	gap := sim.TxTime(CreditSize, CreditRateFor(link))

	mkCredit := func(i uint64) *Packet {
		return &Packet{Type: Credit, Flow: i, WireSize: CreditSize}
	}
	q.Enqueue(mkCredit(1), eng.Now())
	q.Enqueue(mkCredit(2), eng.Now())

	if p := q.Dequeue(0); p == nil || p.Type != Credit {
		t.Fatal("first credit not released immediately")
	}
	if p := q.Dequeue(0); p != nil {
		t.Fatal("second credit released before shaper gap")
	}
	if w := q.NextWake(0); w != sim.Time(gap) {
		t.Fatalf("NextWake = %v, want %v", w, sim.Time(gap))
	}
	if p := q.Dequeue(sim.Time(gap)); p == nil {
		t.Fatal("second credit not released after shaper gap")
	}
}

func TestXPassQdiscCreditOverflow(t *testing.T) {
	q := NewXPassQdisc(XPassQdiscConfig{CreditRate: CreditRateFor(10 * sim.Gbps), CreditLimit: 3})
	for i := 0; i < 3; i++ {
		if q.Enqueue(&Packet{Type: Credit, WireSize: CreditSize}, 0) != Queued {
			t.Fatalf("credit %d dropped below limit", i)
		}
	}
	if r := q.Enqueue(&Packet{Type: Credit, WireSize: CreditSize}, 0); r != DropCreditOver {
		t.Fatalf("credit above limit = %v, want a credit drop", r)
	}
}

func TestXPassQdiscDataBypassesShaper(t *testing.T) {
	q := NewXPassQdisc(XPassQdiscConfig{CreditRate: CreditRateFor(10 * sim.Gbps)})
	d := dataPkt(1, 1538, true)
	q.Enqueue(d, 0)
	q.Enqueue(&Packet{Type: Credit, WireSize: CreditSize}, 0)
	// Credit is ready at t=0, so it is served first; data follows without
	// waiting for the shaper.
	if p := q.Dequeue(0); p.Type != Credit {
		t.Fatalf("first dequeue = %v, want credit", p)
	}
	if p := q.Dequeue(0); p != d {
		t.Fatalf("second dequeue = %v, want data", p)
	}
}

func TestCreditRateFor(t *testing.T) {
	r := CreditRateFor(100 * sim.Gbps)
	// 100G * 84/1538 ≈ 5.46 Gbps.
	if r < 5*sim.Gbps || r > 6*sim.Gbps {
		t.Fatalf("CreditRateFor(100G) = %v, want ≈5.46Gbps", r)
	}
}

func TestDropReasonString(t *testing.T) {
	if DropSelective.String() != "selective" || Queued.String() != "queued" || DropReason(99).String() != "unknown" {
		t.Fatal("DropReason.String mismatch")
	}
}

func TestPacketString(t *testing.T) {
	p := dataPkt(7, 1538, true)
	p.Src, p.Dst = 1, 2
	s := p.String()
	if s == "" || p.Type.String() != "DATA" {
		t.Fatalf("unexpected String: %q", s)
	}
	if PacketType(200).String() == "" {
		t.Fatal("unknown packet type String empty")
	}
}

func TestTrim(t *testing.T) {
	p := dataPkt(1, 9000, false)
	p.Trim()
	if !p.Trimmed || p.WireSize != HeaderSize || p.PayloadLen != 0 {
		t.Fatalf("Trim left %v", p)
	}
}
