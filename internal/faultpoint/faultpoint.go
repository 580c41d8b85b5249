// Package faultpoint is the repository's deterministic fault-injection
// registry. Production code is instrumented with named injection sites —
// store I/O, worker execution, the bearserve scheduler — that ask the
// registry whether an armed plan wants a fault injected at that point.
// Unarmed (the default), every site is a single atomic load and the
// instrumented code runs exactly as shipped.
//
// Determinism is the design center, in the spirit of the repository's
// byte-identical-replay contracts: a plan entry names an exact
// (kind, site, key, occurrence) coordinate, sites key their hits by a
// stable unit identity (a result-store key, a design/workload pair), and
// an entry fires exactly once, when its coordinate is hit. Concurrency
// cannot reorder which unit receives a fault — only *when* it happens —
// so a chaos run with the same plan and seed replays byte-identically.
//
// The registry decides; the site acts. faultpoint itself never sleeps,
// kills a process, or corrupts bytes — it returns the planned Kind and the
// instrumented site implements the fault (truncate the write, exit the
// process, stall past the deadline). That keeps the package free of clocks
// and ambient randomness, so it passes the same determinism lint as the
// simulation packages it tests.
//
// Plan syntax (one entry, or several separated by ';'):
//
//	kind@site            fire on the site's 1st hit, any key
//	kind@site#3          fire on the site's 3rd hit, any key
//	kind@site/key        fire on the 1st hit for that exact key
//	kind@site/key#2      fire on the 2nd hit for that exact key
//
// kind must be one of the Kind constants below. Keys may contain '#': the
// last '#' always starts the occurrence, so String writes "#1" out
// whenever leaving it implicit would be misread.
//
// Keyless entries count hits process-wide and are deterministic only for
// serial sites; keyed entries are deterministic under any concurrency.
// Sites whose occurrence index is externally meaningful (a retry attempt
// number) call HitAt with the index instead of using internal counters, so
// the coordinate survives process restarts — a killed worker's replacement
// sees attempt 2 and does not re-fire an attempt-1 fault.
package faultpoint

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode"
)

// Kind identifies what fault a site should inject.
type Kind string

// The fault vocabulary. Sites document which kinds they honour.
const (
	// TornWrite: persist only a prefix of the payload (a crash mid-write).
	TornWrite Kind = "torn-write"
	// CorruptChecksum: flip a payload byte so the checksum no longer holds.
	CorruptChecksum Kind = "corrupt-checksum"
	// ENOSPC: fail the write as if the filesystem were full.
	ENOSPC Kind = "enospc"
	// KillWorker: die abruptly mid-unit, as if OOM-killed (no output, no
	// cleanup).
	KillWorker Kind = "kill-worker"
	// Hang: stop making progress until the supervisor's deadline trips.
	Hang Kind = "hang"
	// GarbageStdout: emit bytes that are not a valid protocol frame.
	GarbageStdout Kind = "garbage-stdout"
	// SchedDrop: the scheduler loses a dispatched unit (it must retry).
	SchedDrop Kind = "sched-drop"
)

// kinds is the fault vocabulary in declaration order; ParsePlan accepts
// only these, so a misspelt kind fails loudly instead of never firing.
var kinds = []Kind{TornWrite, CorruptChecksum, ENOSPC, KillWorker, Hang, GarbageStdout, SchedDrop}

// None is returned by Hit when no fault fires.
const None Kind = ""

// Record is one fired injection, for the deterministic fault table.
type Record struct {
	Kind Kind
	Site string
	Key  string
	N    int // the occurrence that fired (1-based)
}

func (r Record) String() string {
	s := string(r.Kind) + "@" + r.Site
	if r.Key != "" {
		s += "/" + r.Key
	}
	return fmt.Sprintf("%s#%d", s, r.N)
}

// entry is one planned injection.
type entry struct {
	kind Kind
	site string
	key  string // "" matches any key (process-wide site counter)
	n    int    // 1-based occurrence that fires
}

func (e entry) String() string {
	s := string(e.kind) + "@" + e.site
	if e.key != "" {
		s += "/" + e.key
	}
	// ParsePlan trims each entry and reads the last '#' as the occurrence,
	// so "#1" may stay implicit only when neither could misread the tail.
	if e.n != 1 || strings.Contains(s, "#") || strings.TrimRightFunc(s, unicode.IsSpace) != s {
		s += "#" + strconv.Itoa(e.n)
	}
	return s
}

// Plan is a parsed set of planned injections.
type Plan struct {
	entries []entry
}

// ParsePlan parses the ';'-separated plan syntax. An empty spec yields an
// empty (armed but inert) plan.
func ParsePlan(spec string) (*Plan, error) {
	p := &Plan{}
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(raw, "@")
		if !ok || kindStr == "" || rest == "" {
			return nil, fmt.Errorf("faultpoint: entry %q: want kind@site[/key][#n]", raw)
		}
		e := entry{kind: Kind(kindStr), n: 1}
		if !slices.Contains(kinds, e.kind) {
			return nil, fmt.Errorf("faultpoint: entry %q: unknown kind %q (have %v)", raw, kindStr, kinds)
		}
		if i := strings.LastIndex(rest, "#"); i >= 0 {
			n, err := strconv.Atoi(rest[i+1:])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultpoint: entry %q: occurrence %q is not a positive integer", raw, rest[i+1:])
			}
			e.n = n
			rest = rest[:i]
		}
		e.site, e.key, _ = strings.Cut(rest, "/")
		if e.site == "" {
			return nil, fmt.Errorf("faultpoint: entry %q: empty site", raw)
		}
		p.entries = append(p.entries, e)
	}
	return p, nil
}

// String renders the plan back into parseable spec syntax (the form a
// supervisor passes to worker subprocesses).
func (p *Plan) String() string {
	parts := make([]string, len(p.entries))
	for i, e := range p.entries {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// registry is the process-wide armed state.
type registry struct {
	mu     sync.Mutex
	fired  []bool // parallel to plan.entries
	plan   *Plan
	counts map[string]int // per (site \x00 key) and per site hit counters
	log    []Record
}

var (
	armed atomic.Bool
	reg   registry
)

// Arm installs plan process-wide, resetting all counters and the fired
// log. A nil plan disarms.
func Arm(p *Plan) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if p == nil {
		reg.plan = nil
		reg.fired, reg.counts, reg.log = nil, nil, nil
		armed.Store(false)
		return
	}
	reg.plan = p
	reg.fired = make([]bool, len(p.entries))
	reg.counts = map[string]int{}
	reg.log = nil
	armed.Store(true)
}

// Disarm removes any armed plan; every site becomes a no-op again.
func Disarm() { Arm(nil) }

// Armed reports whether a plan is installed. Sites use it as the fast
// path: one atomic load when chaos testing is off.
func Armed() bool { return armed.Load() }

// Hit asks whether a fault fires at site for key, counting this occurrence
// against the registry's internal per-(site,key) and per-site counters.
// Returns None (and is nearly free) when no plan is armed.
func Hit(site, key string) Kind {
	if !armed.Load() {
		return None
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.plan == nil {
		return None
	}
	reg.counts[site]++
	ns := reg.counts[site]
	nk := ns
	if key != "" {
		reg.counts[site+"\x00"+key]++
		nk = reg.counts[site+"\x00"+key]
	}
	return reg.match(site, key, nk, ns)
}

// HitAt is Hit with the occurrence index supplied by the caller — for
// sites whose index is externally meaningful (a retry attempt) and must
// survive process restarts. Only exact-key entries can match.
func HitAt(site, key string, n int) Kind {
	if !armed.Load() {
		return None
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.plan == nil {
		return None
	}
	return reg.match(site, key, n, -1)
}

// match fires the first unfired entry matching the coordinates: keyed
// entries against (site, key, nk), keyless ones against (site, ns).
func (r *registry) match(site, key string, nk, ns int) Kind {
	for i, e := range r.plan.entries {
		if r.fired[i] || e.site != site {
			continue
		}
		if e.key != "" {
			if e.key != key || e.n != nk {
				continue
			}
		} else if ns < 0 || e.n != ns {
			continue
		}
		r.fired[i] = true
		r.log = append(r.log, Record{Kind: e.kind, Site: site, Key: key, N: nk})
		return e.kind
	}
	return None
}

// Fired returns every injection fired so far, sorted by (site, key, kind,
// occurrence) — a deterministic fault table independent of the schedule
// that hit the sites.
func Fired() []Record {
	reg.mu.Lock()
	out := append([]Record(nil), reg.log...)
	reg.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].N < out[j].N
	})
	return out
}
