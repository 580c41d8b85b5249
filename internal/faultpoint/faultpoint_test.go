package faultpoint

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestUnarmedIsInert(t *testing.T) {
	Disarm()
	if Armed() {
		t.Fatal("armed with no plan")
	}
	if k := Hit("store.save", "k"); k != None {
		t.Fatalf("unarmed Hit fired %q", k)
	}
	if got := Fired(); len(got) != 0 {
		t.Fatalf("unarmed Fired = %v", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	spec := "torn-write@store.save/Alloy:mcf;kill-worker@worker.run/BEAR:lbm#2;enospc@store.save#3"
	p, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != spec {
		t.Fatalf("round trip: %q != %q", got, spec)
	}
	for _, bad := range []string{"tornwrite", "@site", "hang@", "hang@s#0", "hang@s#x", "k@s"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Fatalf("ParsePlan(%q) accepted", bad)
		}
	}
	if _, err := ParsePlan("hnag@worker.run"); err == nil || !strings.Contains(err.Error(), "kill-worker") {
		t.Fatalf("unknown kind error %v does not list the valid kinds", err)
	}
}

// A key may contain '#' or end in a space, and occurrence 1 is then
// written out: without it the parser would read the key's own '#' as the
// occurrence, or trim the space.
func TestParseRoundTripExplicitOccurrence(t *testing.T) {
	for spec, want := range map[string]string{
		"hang@worker.run/a#b#1": "hang@worker.run/a#b#1",
		"hang@worker.run/a#b#2": "hang@worker.run/a#b#2",
		"hang@s/k #1":           "hang@s/k #1",
		"hang@s/k#1":            "hang@s/k",
	} {
		p, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		if got := p.String(); got != want {
			t.Fatalf("ParsePlan(%q).String() = %q, want %q", spec, got, want)
		}
		q, err := ParsePlan(p.String())
		if err != nil || !reflect.DeepEqual(p, q) {
			t.Fatalf("%q does not re-parse to the same plan: %v, %v", p.String(), q, err)
		}
	}
}

// FuzzParsePlan: the parser never panics, and every plan it accepts
// re-parses from its String form to an equal plan.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"torn-write@store.save/Alloy:mcf;kill-worker@worker.run/BEAR:lbm#2;enospc@store.save#3",
		"hang@worker.run/a#b#1",
		"sched-drop@serve.dispatch",
		"garbage-stdout@worker.reply/k/with/slashes#4; corrupt-checksum@store.save",
		"hnag@worker.run",
		";;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		q, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q).String() = %q does not re-parse: %v", spec, p.String(), err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("ParsePlan(%q) = %v, but its String %q re-parses to %v", spec, p.entries, p.String(), q.entries)
		}
	})
}

func TestKeyedEntryFiresOnExactCoordinate(t *testing.T) {
	p, _ := ParsePlan("torn-write@store.save/unitB#2")
	Arm(p)
	defer Disarm()

	if k := Hit("store.save", "unitA"); k != None {
		t.Fatalf("wrong key fired %q", k)
	}
	if k := Hit("store.save", "unitB"); k != None {
		t.Fatalf("occurrence 1 fired %q", k)
	}
	if k := Hit("store.save", "unitB"); k != TornWrite {
		t.Fatalf("occurrence 2 = %q, want torn-write", k)
	}
	if k := Hit("store.save", "unitB"); k != None {
		t.Fatalf("entry fired twice: %q", k)
	}
	got := Fired()
	if len(got) != 1 || got[0].Kind != TornWrite || got[0].Key != "unitB" || got[0].N != 2 {
		t.Fatalf("Fired = %v", got)
	}
}

func TestKeylessEntryCountsSiteWide(t *testing.T) {
	p, _ := ParsePlan("enospc@store.save#3")
	Arm(p)
	defer Disarm()
	keys := []string{"a", "b", "c", "d"}
	fired := 0
	for i, key := range keys {
		if k := Hit("store.save", key); k == ENOSPC {
			fired++
			if i != 2 {
				t.Fatalf("fired on hit %d, want 3rd", i+1)
			}
		}
	}
	if fired != 1 {
		t.Fatalf("fired %d times", fired)
	}
}

// HitAt carries an external occurrence index (a retry attempt), so a
// restarted process does not re-fire an earlier attempt's fault.
func TestHitAtUsesExternalIndex(t *testing.T) {
	p, _ := ParsePlan("kill-worker@worker.run/u1")
	Arm(p)
	defer Disarm()
	if k := HitAt("worker.run", "u1", 2); k != None {
		t.Fatalf("attempt 2 fired %q", k)
	}
	if k := HitAt("worker.run", "u1", 1); k != KillWorker {
		t.Fatalf("attempt 1 = %q", k)
	}
	// A fresh process would re-arm the same plan; simulate by re-arming and
	// asking for attempt 2 — the attempt-1 entry must not fire.
	Arm(p)
	if k := HitAt("worker.run", "u1", 2); k != None {
		t.Fatalf("re-armed attempt 2 fired %q", k)
	}
}

// The fired table must be independent of which goroutine hits first:
// keyed entries pin faults to units, so concurrency only changes timing.
func TestConcurrentHitsDeterministicTable(t *testing.T) {
	run := func() []Record {
		p, _ := ParsePlan("torn-write@s/u3;enospc@s/u7")
		Arm(p)
		defer Disarm()
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			key := "u" + string(rune('0'+i%10))
			wg.Add(1)
			go func() {
				defer wg.Done()
				Hit("s", key)
			}()
		}
		wg.Wait()
		return Fired()
	}
	a, b := run(), run()
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("fired %d and %d injections, want 2", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tables diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
