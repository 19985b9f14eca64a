package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// binaries are the programs under test, built from the benchmarked tree.
type binaries struct {
	sim, server, coordinator string
}

// buildBinaries compiles the three commands into dir. Not timed.
func buildBinaries(root, dir string) (binaries, error) {
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/cascade-sim", "./cmd/cascade-server", "./cmd/cascade-coordinator")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return binaries{
		sim:         filepath.Join(dir, "cascade-sim"),
		server:      filepath.Join(dir, "cascade-server"),
		coordinator: filepath.Join(dir, "cascade-coordinator"),
	}, nil
}

// command prepares a child process of the harness. The kernel kills it
// if the harness dies first, so no daemon outlives an interrupted run.
func command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// usage is what the kernel accounted to one finished process.
type usage struct {
	cpu   time.Duration // user + system
	rssKB int64         // peak resident set (ru_maxrss)
}

func usageOf(ps *os.ProcessState) usage {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return usage{}
	}
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), rssKB: ru.Maxrss}
}

// daemon is a running cascade-server or cascade-coordinator.
type daemon struct {
	cmd    *exec.Cmd
	log    *listenLog
	exited chan struct{}
	url    string
}

// listenLog keeps a daemon's stderr and reports the address from its
// "listening on http://HOST:PORT" line.
type listenLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // buffered 1; receives the address once
	sent bool
}

func (l *listenLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if !l.sent {
		const marker = "listening on http://"
		s := l.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			rest := s[i+len(marker):]
			if j := strings.IndexAny(rest, " \n"); j >= 0 {
				l.addr <- "http://" + rest[:j]
				l.sent = true
			}
		}
	}
	return len(p), nil
}

func (l *listenLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// launch starts a daemon without waiting for it; call ready next.
func launch(bin string, args ...string) (*daemon, error) {
	d := &daemon{
		cmd:    command(bin, args...),
		log:    &listenLog{addr: make(chan string, 1)},
		exited: make(chan struct{}),
	}
	d.cmd.Stderr = d.log
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

// ready waits for the daemon's listen address.
func (d *daemon) ready() error {
	select {
	case d.url = <-d.log.addr:
		return nil
	case <-d.exited:
		return fmt.Errorf("%s exited before listening:\n%s", filepath.Base(d.cmd.Path), d.log)
	case <-time.After(30 * time.Second):
		return fmt.Errorf("%s never reported a listen address:\n%s", filepath.Base(d.cmd.Path), d.log)
	}
}

// stop sends SIGTERM, waits for the drain (killing after 30 s), and
// returns the process's accounted usage.
func (d *daemon) stop() usage {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	return usageOf(d.cmd.ProcessState)
}

// stopAll stops daemons and sums their usage: CPU adds, and so do peak
// RSS values, since the daemons run side by side.
func stopAll(ds []*daemon) usage {
	var total usage
	for _, d := range ds {
		u := d.stop()
		total.cpu += u.cpu
		total.rssKB += u.rssKB
	}
	return total
}
