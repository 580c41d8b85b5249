package cpu

import (
	"testing"

	"bear/internal/event"
	"bear/internal/trace"
)

// nextOnly hides a Source's Fill, so the core draws it through its Next
// adapter.
type nextOnly struct{ src trace.Source }

func (n nextOnly) Next(op *trace.Op) { n.src.Next(op) }

// logPort answers three in four loads synchronously within SyncLimit and
// the rest asynchronously after 150 cycles, logging every access with its
// time. Each load first checks the core's MSHR accounting.
type logPort struct {
	t    *testing.T
	q    *event.Queue
	core *Core
	log  []uint64
}

func (p *logPort) Load(now uint64, core int, line, pc uint64, done event.Func) (uint64, bool) {
	if err := p.core.CheckMSHRs(); err != nil {
		p.t.Fatal(err)
	}
	p.log = append(p.log, now, line)
	if line%4 != 0 {
		return now + 1 + line%20, true
	}
	p.q.At(now+150, done)
	return 0, false
}

func (p *logPort) Store(now uint64, core int, line, pc uint64) { p.log = append(p.log, now, ^line) }

// runLogged runs one core over src to its budget and returns it with the
// port's access log.
func runLogged(t *testing.T, src trace.Source) (*Core, []uint64) {
	t.Helper()
	q := &event.Queue{}
	port := &logPort{t: t, q: q}
	finished := false
	c := New(0, cfg(), q, src, port, 2000, 20000, nil, func(int, uint64) { finished = true })
	port.core = c
	c.Start()
	q.Run(func() bool { return finished })
	if !c.Finished {
		t.Fatal("core did not finish")
	}
	return c, port.log
}

// TestNextAdapterMatchesFill: a core fed by a Source with only Next (the
// adapter path, which perfbench's traced taps take) issues exactly the
// accesses, at exactly the times, of a core fed by the same generator
// through Fill.
func TestNextAdapterMatchesFill(t *testing.T) {
	b, err := trace.ByName("omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	fc, flog := runLogged(t, trace.NewGen(b, 0, 1024, 5))
	nc, nlog := runLogged(t, nextOnly{trace.NewGen(b, 0, 1024, 5)})
	if fc.filler == nil || nc.filler != nil {
		t.Fatalf("filler paths: Gen %v, Next-only %v; want Fill then the adapter", fc.filler != nil, nc.filler != nil)
	}
	if len(flog) != len(nlog) {
		t.Fatalf("Fill path logged %d accesses, Next adapter %d", len(flog)/2, len(nlog)/2)
	}
	for i := range flog {
		if flog[i] != nlog[i] {
			t.Fatalf("access %d differs: Fill (t=%d line=%#x), Next (t=%d line=%#x)",
				i/2, flog[i&^1], flog[i|1], nlog[i&^1], nlog[i|1])
		}
	}
	if fc.FinishAt != nc.FinishAt || fc.StallCycles != nc.StallCycles || fc.Retired() != nc.Retired() {
		t.Fatalf("Fill path finished at %d (%d stall, %d retired), Next adapter at %d (%d stall, %d retired)",
			fc.FinishAt, fc.StallCycles, fc.Retired(), nc.FinishAt, nc.StallCycles, nc.Retired())
	}
}

// TestCheckMSHRsIsExact: the check passes on a live core holding both
// pending async loads and sync completion times, and fails when the slot
// count drifts by one either way.
func TestCheckMSHRsIsExact(t *testing.T) {
	b, _ := trace.ByName("mcf")
	q := &event.Queue{}
	port := &logPort{t: t, q: q}
	c := New(0, cfg(), q, trace.NewGen(b, 0, 1024, 3), port, 0, 1<<30, nil, nil)
	port.core = c
	c.Start()
	for q.Len() > 0 && (len(c.syncDone) == 0 || c.inflight == len(c.syncDone)) {
		q.Step()
	}
	if len(c.syncDone) == 0 || c.inflight == len(c.syncDone) {
		t.Fatal("never held sync and async loads together")
	}
	if err := c.CheckMSHRs(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{1, -1} {
		c.inflight += d
		if c.CheckMSHRs() == nil {
			t.Errorf("inflight off by %+d passed the check", d)
		}
		c.inflight -= d
	}
}
