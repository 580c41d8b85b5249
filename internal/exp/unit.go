package exp

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"bear/internal/config"
	"bear/internal/stats"
	"bear/internal/trace"
)

// UnitSpec is the wire form of one sweep unit: a paper-default design by
// name plus a workload, with optional L4 geometry overrides. It is the unit
// of fault isolation in bearserve — the server serializes UnitSpecs to
// worker subprocesses (bearbench -worker) and each worker simulates exactly
// one before reporting back — and the unit of resume in bearbench and
// bearsim, whose store entries the server's share keys with (see Key).
//
// Workload naming follows the Runner's memo vocabulary: a rate benchmark
// name ("soplex"), "MIX<n>" for mixed workload n (the prefix in any case),
// or "<bench>@single" for a single-program run.
//
// The overrides are bearsim's sensitivity knobs (bearserve refuses units
// that set them); zero keeps the paper default, and they are omitted from
// the JSON form when zero, so a default unit encodes (and keys) exactly as
// one without them.
type UnitSpec struct {
	Design   string `json:"design"`
	Workload string `json:"workload"`

	L4Channels int   `json:"l4channels,omitempty"` // L4 channel count
	L4Banks    int   `json:"l4banks,omitempty"`    // L4 banks per channel
	CapacityMB int64 `json:"capacityMB,omitempty"` // full-scale L4 capacity
}

func (u UnitSpec) String() string { return u.Design + "/" + u.Workload }

// unitDesigns maps UnitSpec design names (case-insensitively) to the
// paper-default spec for that design. Each design's lower-cased
// Design.String is its canonical name; the rest are aliases.
var unitDesigns = map[string]config.Design{
	"nol4": config.NoL4, "alloy": config.Alloy, "bear": config.BEAR,
	"bw-opt": config.BWOpt, "bwopt": config.BWOpt, "lh": config.LohHill,
	"lohhill": config.LohHill, "mc": config.MostlyClean,
	"incl-alloy": config.InclAlloy, "incl": config.InclAlloy, "tis": config.TIS,
	"sc": config.Sector, "banshee": config.Banshee, "tictoc": config.TicToc,
}

// UnitDesignNames lists the designs UnitSpec accepts, sorted, once each,
// in their canonical (Design.String) casing.
func UnitDesignNames() []string {
	var names []string
	for name, d := range unitDesigns {
		if name == strings.ToLower(d.String()) {
			names = append(names, d.String())
		}
	}
	sort.Strings(names)
	return names
}

// spec returns the paper-default spec for the unit's design, with the
// unit's overrides.
func (u UnitSpec) spec() (spec, error) {
	d, ok := unitDesigns[strings.ToLower(strings.TrimSpace(u.Design))]
	if !ok {
		return spec{}, fmt.Errorf("exp: unknown design %q (have %s)",
			u.Design, strings.Join(UnitDesignNames(), ", "))
	}
	// Units arrive from the network (bearserve), so a negative override is
	// rejected here rather than read as "paper default".
	if u.L4Channels < 0 || u.L4Banks < 0 || u.CapacityMB < 0 {
		return spec{}, fmt.Errorf("exp: unit %s: negative L4 override", u)
	}
	s := baseSpec(d)
	s.channels, s.banks, s.capacityMB = u.L4Channels, u.L4Banks, u.CapacityMB
	return s, nil
}

// resolve maps the unit onto the Runner's memo coordinates: its spec and
// the workload name exactly as the memo (and therefore the result store)
// keys it. mix is the mixed-workload number, or 0 for any other workload.
func (u UnitSpec) resolve() (s spec, wl string, mix int, err error) {
	if s, err = u.spec(); err != nil {
		return spec{}, "", 0, err
	}
	wl = u.Workload
	if strings.TrimSpace(wl) == "" {
		return spec{}, "", 0, fmt.Errorf("exp: unit %s: empty workload", u)
	}
	if len(wl) > 3 && strings.EqualFold(wl[:3], "MIX") {
		mix, err = strconv.Atoi(wl[3:])
		if err != nil || mix < 1 {
			return spec{}, "", 0, fmt.Errorf("exp: unit %s: bad mix number %q", u, wl[3:])
		}
		wl = fmt.Sprintf("MIX%d", mix)
	}
	return s, wl, mix, nil
}

// Validate reports whether the unit names a known design, a non-empty
// workload (a well-formed mix number for "MIX<n>") and no negative
// override; whether a rate benchmark exists is checked at run time, when
// the trace catalog is consulted.
func (u UnitSpec) Validate() error {
	_, _, _, err := u.resolve()
	return err
}

// Key returns the unit's result-store key — identical to the key the
// Runner uses when it simulates the same unit itself, so a store populated
// by bearserve workers resumes a bearbench or bearsim sweep and vice versa.
func (u UnitSpec) Key() (string, error) {
	s, wl, _, err := u.resolve()
	if err != nil {
		return "", err
	}
	return storeKey(memoKey{s: s, wl: wl}), nil
}

// UnitAsync starts (or joins) the unit's simulation and returns a future,
// dispatching on the workload naming convention: "MIX<n>", "<b>@single",
// or a rate benchmark name.
func (r *Runner) UnitAsync(u UnitSpec) (Future, error) {
	s, wl, mix, err := u.resolve()
	if err != nil {
		return Future{}, err
	}
	if mix > 0 {
		return r.MixAsync(s, mix), nil
	}
	if bench, ok := strings.CutSuffix(wl, "@single"); ok {
		return r.SingleAsync(s, bench), nil
	}
	return r.RateAsync(s, wl), nil
}

// FilesAsync starts the unit's design on a workload replayed from
// recorded trace files, one per core (see cmd/beartrace); u.Workload names
// the result and, with the design, its memo entry on this Runner. The
// files' contents are not part of a store key, so a Runner with a Store
// refuses trace-file units.
func (r *Runner) FilesAsync(u UnitSpec, paths []string) (Future, error) {
	if r.Store != nil {
		return Future{}, errors.New("exp: trace-file units cannot use a result store")
	}
	s, err := u.spec()
	if err != nil {
		return Future{}, err
	}
	return Future{r.start(s, u.Workload, func() (trace.Workload, error) {
		return trace.FromFiles(u.Workload, paths)
	})}, nil
}

// RunUnit simulates the unit to completion on the calling goroutine's
// behalf — the whole job of a bearbench -worker process.
func (r *Runner) RunUnit(u UnitSpec) (*stats.Run, error) {
	f, err := r.UnitAsync(u)
	if err != nil {
		return nil, err
	}
	return f.Wait()
}

// ErrInterrupted is returned by units refused because the Runner was
// interrupted. It marks orderly shutdown, not a simulation fault, so it
// never enters the failure table.
var ErrInterrupted = errors.New("exp: runner interrupted")

// Interrupt puts the Runner into drain mode: units already executing run
// to completion (and, with a Store attached, persist their results as
// usual), while any unit not yet started fails fast with ErrInterrupted.
// This is the SIGINT/SIGTERM path — everything finished is checkpointed,
// nothing new begins — and it is safe to call more than once.
func (r *Runner) Interrupt() {
	r.mu.Lock()
	r.interrupted = true
	r.mu.Unlock()
}

// Interrupted reports whether Interrupt has been called.
func (r *Runner) Interrupted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.interrupted
}
