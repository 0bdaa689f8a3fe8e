package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes: daemon binaries,
// generated inputs, daemon logs. It is relative to the module root the
// benchmark is run from, and ignored by git.
const buildDir = ".bench_build"

// buildDaemons compiles cmd/mediator and cmd/datasource into binDir and
// returns the seconds it took.
func buildDaemons(binDir string) (float64, error) {
	start := time.Now()
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return 0, err
	}
	args := append([]string{"build", "-o", abs + string(os.PathSeparator)}, daemonPackages...)
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return time.Since(start).Seconds(), nil
}

// logSink receives a daemon's stderr: it keeps a copy for the log file
// and the drain check, and announces the listen address once the
// daemon's "serving ... at" line arrives.
type logSink struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	line  []byte
	addr  chan string
	found bool
}

func (s *logSink) Write(p []byte) (int, error) {
	if addr := s.scan(p); addr != "" {
		s.addr <- addr // buffered, and scan reports an address once
	}
	return len(p), nil
}

// scan stores p and returns the listen address when p completes the
// line that announces it.
func (s *logSink) scan(p []byte) (addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Write(p)
	for _, b := range p {
		if b != '\n' {
			s.line = append(s.line, b)
			continue
		}
		if m := listenLine.FindSubmatch(s.line); m != nil && !s.found {
			s.found = true
			addr = string(m[1])
		}
		s.line = s.line[:0]
	}
	return addr
}

func (s *logSink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// daemon is one spawned party process.
type daemon struct {
	name   string
	cmd    *exec.Cmd
	log    *logSink
	addr   string
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, valid after exited
}

// startDaemon spawns bin in its own process group with stderr captured,
// and waits for it to announce its listener.
func startDaemon(name, bin string, args ...string) (*daemon, error) {
	d := &daemon{name: name, log: &logSink{addr: make(chan string, 1)}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = d.log
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-d.log.addr:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("%s exited during start-up: %v\n%s", name, d.err, d.log)
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not announce a listener within 20s\n%s", name, d.log)
	}
}

// kill ends the daemon's process group at once and reaps it.
func (d *daemon) kill() {
	if !d.alive() {
		return
	}
	// The group may be gone already; the wait below settles either way.
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.exited
}

// stop asks the daemon to drain with SIGTERM and checks that it did:
// exit status 0 and the "drained cleanly" line.
func (d *daemon) stop() error {
	if !d.alive() {
		return fmt.Errorf("%s died before it was stopped: %v", d.name, d.err)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal %s: %w", d.name, err)
	}
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
		return fmt.Errorf("%s did not exit within 15s of SIGTERM", d.name)
	}
	if d.err != nil {
		return fmt.Errorf("%s exited uncleanly: %v", d.name, d.err)
	}
	if !strings.Contains(d.log.String(), drainedLine) {
		return fmt.Errorf("%s exited without logging %q", d.name, drainedLine)
	}
	return nil
}

func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// deployment is the real three-process system: a mediator and two
// datasources on loopback ports.
type deployment struct {
	mediator, s1, s2 *daemon
	// telemetry holds the daemons' /snapshot URLs when started traced.
	telemetry map[string]string
}

func (dp *deployment) daemons() []*daemon {
	var out []*daemon
	for _, d := range []*daemon{dp.mediator, dp.s1, dp.s2} {
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

// startDeployment spawns the two datasources, then the mediator routed
// to the addresses they announced. With traced set, each daemon serves
// its telemetry endpoints on a port below the ephemeral range, so the
// benchmark's own outgoing connections cannot take it first.
func startDeployment(binDir string, ds *dataset, traced bool) (*deployment, error) {
	dp := &deployment{}
	track(dp, true)
	telemetryArgs := func(name string) ([]string, error) {
		if !traced {
			return nil, nil
		}
		addr, err := freeLowPort()
		if err != nil {
			return nil, err
		}
		if dp.telemetry == nil {
			dp.telemetry = map[string]string{}
		}
		dp.telemetry[name] = "http://" + addr + "/snapshot"
		return []string{"-telemetry", addr}, nil
	}
	source := func(name, rel, csv string) (*daemon, error) {
		extra, err := telemetryArgs(name)
		if err != nil {
			return nil, err
		}
		args := append([]string{"-name", name, "-listen", "127.0.0.1:0",
			"-ca", filepath.Join(ds.dir, "ca-pub.pem"),
			"-relation", rel + "=" + filepath.Join(ds.dir, csv),
			"-require", rel + ":role=analyst"}, extra...)
		return startDaemon(name, filepath.Join(binDir, "datasource"), args...)
	}
	var err error
	if dp.s1, err = source("S1", "R1", "r1.csv"); err != nil {
		dp.kill()
		return nil, err
	}
	if dp.s2, err = source("S2", "R2", "r2.csv"); err != nil {
		dp.kill()
		return nil, err
	}
	extra, err := telemetryArgs("mediator")
	if err != nil {
		dp.kill()
		return nil, err
	}
	args := append([]string{"-listen", "127.0.0.1:0",
		"-route", "R1=" + dp.s1.addr + ";" + schemaFlag(ds.r1),
		"-route", "R2=" + dp.s2.addr + ";" + schemaFlag(ds.r2)}, extra...)
	if dp.mediator, err = startDaemon("mediator", filepath.Join(binDir, "mediator"), args...); err != nil {
		dp.kill()
		return nil, err
	}
	return dp, nil
}

// lowPorts hands out candidate telemetry ports from 20000–29999, each
// at most once per process.
var lowPorts atomic.Int64

// freeLowPort finds an unused loopback port below the ephemeral range.
func freeLowPort() (string, error) {
	for i := 0; i < 1000; i++ {
		port := 20000 + (int64(os.Getpid())*7+lowPorts.Add(1))%10000
		addr := "127.0.0.1:" + strconv.FormatInt(port, 10)
		l, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		if err := l.Close(); err != nil {
			return "", err
		}
		return addr, nil
	}
	return "", errors.New("no free loopback port in 20000-29999")
}

// kill ends every daemon at once; the exit path of failures.
func (dp *deployment) kill() {
	for _, d := range dp.daemons() {
		d.kill()
	}
	track(dp, false)
}

// stop drains the mediator first, then the sources, and reports the
// first daemon that did not drain cleanly.
func (dp *deployment) stop() error {
	var errs []error
	for _, d := range dp.daemons() {
		if err := d.stop(); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) == 0 {
		track(dp, false)
	}
	return errors.Join(errs...)
}

// checkAlive fails when a daemon has died.
func (dp *deployment) checkAlive() error {
	for _, d := range dp.daemons() {
		if !d.alive() {
			return fmt.Errorf("%s died mid-run: %v\n%s", d.name, d.err, d.log)
		}
	}
	return nil
}

// writeLogs stores each daemon's stderr under dir.
func (dp *deployment) writeLogs(dir, tag string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range dp.daemons() {
		path := filepath.Join(dir, tag+"-"+d.name+".log")
		if err := os.WriteFile(path, []byte(d.log.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// procUsage is one reading of a process's CPU time and peak memory.
type procUsage struct {
	cpuS   float64 // user + system seconds
	peakMB float64 // VmHWM
}

// clockTick is USER_HZ, fixed at 100 on Linux.
const clockTick = 100

func readProcUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	u.cpuS = (utime + stime) / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return u, err
			}
			u.peakMB = kb / 1024
		}
	}
	return u, nil
}

// selfCPU is the load generator's own user + system seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
