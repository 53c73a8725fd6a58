//go:build e2e

// Package e2e drives the shipped binaries end to end. TestMain builds
// oodbd, oodbsim, oodbload and chaos once; the tests start them on
// kernel-assigned loopback ports, read the bound addresses from the lines
// the binaries print, and poll their endpoints with a deadline. Run it with
//
//	go test -tags e2e -count=1 ./e2e
package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var binDir string // the binaries TestMain built

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "oodb-e2e-*")
	if err == nil {
		build := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
			"repro/cmd/oodbd", "repro/cmd/oodbsim", "repro/cmd/oodbload", "repro/cmd/chaos")
		build.Stdout, build.Stderr = os.Stderr, os.Stderr
		err = build.Run()
	}
	code := 1
	if binDir = dir; err != nil {
		fmt.Fprintln(os.Stderr, "e2e: build:", err)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// proc is one started binary.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
	mu   sync.Mutex
	out  []byte // stdout and stderr in arrival order
}

// Write collects output; exec serializes stdout's and stderr's writes.
func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	p.out = append(p.out, b...)
	p.mu.Unlock()
	return len(b), nil
}

// lines returns the complete lines printed so far.
func (p *proc) lines() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := strings.Split(string(p.out), "\n")
	return l[:len(l)-1]
}

// start launches a built binary in a process group of its own. t.Cleanup
// kills the group, waits for the process and, if the test failed, logs
// the tail of its output.
func start(t *testing.T, name string, args ...string) *proc {
	t.Helper()
	p := &proc{name: name, cmd: exec.Command(filepath.Join(binDir, name), args...), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = p, p
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(func() {
		_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL) // fails only when the group is gone
		<-p.done
		if t.Failed() {
			l := p.lines()
			t.Logf("%s %s; last output:\n%s", name, strings.Join(args, " "), strings.Join(l[max(len(l)-30, 0):], "\n"))
		}
	})
	return p
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// wait waits for the process to exit and returns its exit code.
func (p *proc) wait(t *testing.T) int {
	t.Helper()
	eventually(t, 3*time.Minute, p.name+" exit", p.exited)
	return p.cmd.ProcessState.ExitCode()
}

// match waits until an output line matches re and returns its submatches.
// It fails t if the process exits first.
func (p *proc) match(t *testing.T, re string) []string {
	t.Helper()
	rx := regexp.MustCompile(re)
	var m []string
	eventually(t, time.Minute, fmt.Sprintf("%s line matching %q", p.name, re), func() bool {
		exited := p.exited() // before the scan: an exited process has printed everything
		for _, l := range p.lines() {
			if m = rx.FindStringSubmatch(l); m != nil {
				return true
			}
		}
		if exited {
			t.Fatalf("%s exited %d before printing a line matching %q", p.name, p.cmd.ProcessState.ExitCode(), re)
		}
		return false
	})
	return m
}

// run starts a binary, requires it to exit 0 and returns its output.
func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	p := start(t, name, args...)
	if code := p.wait(t); code != 0 {
		t.Fatalf("%s %s exited %d", name, strings.Join(args, " "), code)
	}
	return strings.Join(p.lines(), "\n")
}

// eventually polls cond every 20ms until it holds, and fails t if d
// passes first.
func eventually(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("no %s within %v", what, d)
		}
	}
}

// oodbd starts a server with both endpoints on kernel-assigned ports and
// returns it with its wire address and its metrics base URL.
func oodbd(t *testing.T, args ...string) (p *proc, addr, base string) {
	t.Helper()
	p = start(t, "oodbd", append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, args...)...)
	addr = p.match(t, `^oodbd: serving \S+ protocol on (\S+)$`)[1]
	base = "http://" + p.match(t, `serving metrics at http://(\S+)/metrics`)[1]
	return p, addr, base
}

// drain sends SIGTERM and requires a clean exit: oodbd exits 1 when the
// drain fails or leaks an admission slot. Given the metrics URL of a
// lingering server, it first waits for /healthz to read draining.
func drain(t *testing.T, p *proc, base string) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if base != "" {
		eventually(t, 10*time.Second, "draining /healthz", func() bool {
			var h health
			get(t, base+"/healthz", &h)
			return h.Status == "draining"
		})
	}
	if code := p.wait(t); code != 0 {
		t.Fatalf("oodbd exited %d after SIGTERM", code)
	}
}

// freeAddrs reserves k distinct kernel-assigned loopback addresses.
func freeAddrs(t *testing.T, k int) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		defer ln.Close() // held until return, so the k ports differ
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// get fetches url and returns the status code and the body, which it
// also decodes as JSON into v unless v is nil.
func get(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && v != nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		t.Fatalf("GET %s: %v in %.300q", url, err, body)
	}
	return resp.StatusCode, body
}

// health is the part of /healthz the tests read.
// Repl is zero on an unreplicated server.
type health struct {
	Status string
	Repl   struct {
		Role   string
		Term   uint64
		Leader string
	}
}
