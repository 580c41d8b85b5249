package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"
	"time"

	"bear/internal/exp"
	"bear/internal/fault"
	"bear/internal/serve/worker"
)

// Hello is the worker's handshake frame, defined in package worker. The
// alias keeps serve.Hello resolving for code that decodes a worker's first
// line itself against this package, such as perfbench's spawn timer.
type Hello = worker.Hello

// workerProc supervises one worker subprocess. It is used by a single
// scheduler goroutine at a time (one proc per pool slot), so it needs no
// locking; the reader goroutine exists only to make stdout reads
// interruptible by deadlines and process death.
type workerProc struct {
	argv        []string
	fingerprint string

	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string // closed when the worker's stdout ends
}

func newWorkerProc(argv []string, fingerprint string) *workerProc {
	return &workerProc{argv: argv, fingerprint: fingerprint}
}

// alive reports whether a subprocess is currently attached.
func (w *workerProc) alive() bool { return w.cmd != nil }

// start launches the subprocess and completes the Hello handshake within
// the given deadline, so a worker that is miswired (wrong binary, wrong
// parameters, different code revision) is rejected before it can serve —
// or poison — a single unit.
func (w *workerProc) start(helloDeadline time.Duration) error {
	cmd := exec.Command(w.argv[0], w.argv[1:]...)
	// Each worker leads its own process group, so kill() can take down
	// anything the worker spawned: a hung worker's children would
	// otherwise outlive the supervisor, holding its pipes open.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fmt.Errorf("serve: worker stdin: %w", err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("serve: worker stdout: %w", err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("serve: spawning worker: %w", err)
	}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	w.cmd, w.stdin, w.lines = cmd, stdin, lines

	line, err := w.readLine(helloDeadline)
	if err != nil {
		w.kill()
		return fmt.Errorf("serve: worker handshake: %w", err)
	}
	var hello worker.Hello
	if err := json.Unmarshal([]byte(line), &hello); err != nil || !hello.Hello {
		w.kill()
		return fmt.Errorf("serve: worker handshake: unexpected frame %q", line)
	}
	if hello.Fingerprint != w.fingerprint {
		w.kill()
		return fmt.Errorf("serve: worker fingerprint %q does not match the server's — refusing a mismatched worker",
			hello.Fingerprint)
	}
	return nil
}

// readLine returns the worker's next stdout line, or an error if the
// process dies or the deadline passes first.
func (w *workerProc) readLine(deadline time.Duration) (string, error) {
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case line, ok := <-w.lines:
		if !ok {
			err := w.cmd.Wait()
			w.cmd = nil
			return "", fmt.Errorf("worker exited mid-unit: %v", err)
		}
		return line, nil
	case <-timer.C:
		return "", errDeadline
	}
}

// errDeadline marks a deadline expiry inside readLine; run translates it
// into a typed fault.WatchdogError carrying the unit's identity.
var errDeadline = fmt.Errorf("deadline expired")

// run executes one unit on the worker, enforcing the wall-clock deadline.
// Any failure — spawn error, death mid-unit, protocol garbage, deadline —
// leaves the subprocess killed and detached, so the next run starts a
// fresh one; the worker pool self-heals by construction.
func (w *workerProc) run(req worker.WorkRequest, deadline time.Duration) (*worker.WorkReply, error) {
	if !w.alive() {
		if err := w.start(deadline); err != nil {
			return nil, err
		}
	}
	frame, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding request: %w", err)
	}
	if _, err := fmt.Fprintf(w.stdin, "%s\n", frame); err != nil {
		w.kill()
		return nil, fmt.Errorf("serve: worker unreachable: %w", err)
	}
	line, err := w.readLine(deadline)
	if err != nil {
		w.kill()
		if err == errDeadline {
			return nil, watchdogDeadline(req.Unit, deadline)
		}
		return nil, err
	}
	var reply worker.WorkReply
	if err := json.Unmarshal([]byte(line), &reply); err != nil {
		// The stream is no longer trustworthy once a frame fails to parse;
		// kill the process rather than guess where the next frame starts.
		w.kill()
		return nil, fmt.Errorf("worker emitted garbage instead of a reply: %q", line)
	}
	return &reply, nil
}

// watchdogDeadline wraps a blown worker deadline in the simulator's typed
// watchdog vocabulary, so bearserve's failure tables classify supervisor
// timeouts alongside in-simulation stalls and budget trips.
func watchdogDeadline(u exp.UnitSpec, deadline time.Duration) error {
	return &fault.WatchdogError{
		Kind:     fault.WatchdogDeadline,
		Workload: u.Workload,
		Design:   u.Design,
		Limit:    uint64(deadline / time.Millisecond),
	}
}

// kill forcibly terminates and detaches the subprocess (idempotent).
func (w *workerProc) kill() {
	if w.cmd == nil {
		return
	}
	w.stdin.Close()
	syscall.Kill(-w.cmd.Process.Pid, syscall.SIGKILL) // whole process group
	w.cmd.Process.Kill()
	w.cmd.Wait()
	// Drain the reader so its goroutine exits with the closed pipe.
	for range w.lines {
	}
	w.cmd = nil
}

// stop ends the worker gracefully: closing stdin lets WorkerLoop return
// at EOF; if the process lingers past the grace period it is killed.
func (w *workerProc) stop(grace time.Duration) {
	if w.cmd == nil {
		return
	}
	w.stdin.Close()
	done := make(chan struct{})
	go func() {
		w.cmd.Wait()
		close(done)
	}()
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		syscall.Kill(-w.cmd.Process.Pid, syscall.SIGKILL)
		w.cmd.Process.Kill()
		<-done
	}
	for range w.lines {
	}
	w.cmd = nil
}
