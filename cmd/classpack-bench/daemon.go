package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonTimeout bounds how long jpackd may take to start listening,
// become healthy, or drain after SIGTERM.
const daemonTimeout = 30 * time.Second

// chunkClasses is jpackd's -chunk, which the in-process replay packs
// with too: class i of a jar is in chunk i/chunkClasses of its archive.
const chunkClasses = 64

// daemon is a jpackd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *stderrLog
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, set before exited closes
}

// startDaemon runs jpackd on a loopback port with the benchmark's
// settings (-chunk chunkClasses, a cache directory of its own) plus
// extra flags, and returns once GET /healthz answers 200.
func startDaemon(ctx context.Context, bin, cacheDir string, hc *http.Client, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-chunk", fmt.Sprint(chunkClasses), "-cache", cacheDir}, extra...)
	cmd := exec.Command(bin, args...)
	log := &stderrLog{addr: make(chan string, 1)}
	cmd.Stderr = log
	// If the benchmark dies, the kernel stops jpackd with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting jpackd: %w", err)
	}
	d := &daemon{cmd: cmd, log: log, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	timer := time.NewTimer(daemonTimeout)
	defer timer.Stop()
	select {
	case addr := <-log.addr:
		d.base = "http://" + addr
	case <-d.exited:
		return nil, fmt.Errorf("jpackd exited before listening: %v\n%s", d.err, log.tail())
	case <-timer.C:
		d.kill()
		return nil, fmt.Errorf("jpackd did not listen within %v\n%s", daemonTimeout, log.tail())
	case <-ctx.Done():
		d.kill()
		return nil, ctx.Err()
	}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("jpackd exited before it was healthy: %v\n%s", d.err, log.tail())
		case <-timer.C:
			d.kill()
			return nil, fmt.Errorf("jpackd not healthy within %v", daemonTimeout)
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM and waits for the drain. An exit status other
// than 0 is an error: jpackd must drain cleanly.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling jpackd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(daemonTimeout):
		d.kill()
		return fmt.Errorf("jpackd did not drain within %v", daemonTimeout)
	}
	if d.err != nil {
		return fmt.Errorf("jpackd exited uncleanly: %v\n%s", d.err, d.log.tail())
	}
	return nil
}

// kill ends the process without a drain and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// stderrLog collects jpackd's log lines, reports the address from its
// "listening on" line, and keeps the last lines for error messages.
type stderrLog struct {
	addr chan string

	mu      sync.Mutex
	partial []byte
	lines   []string
}

func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(l.partial[:i])
		l.partial = l.partial[i+1:]
		if _, addr, ok := strings.Cut(line, "listening on "); ok {
			select {
			case l.addr <- strings.TrimSpace(addr):
			default:
			}
		}
		l.lines = append(l.lines, line)
		if len(l.lines) > 20 {
			l.lines = l.lines[1:]
		}
	}
}

func (l *stderrLog) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}
