package main

import (
	"bufio"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSIGTERMRightAfterStartDrains builds campaignd, sends SIGTERM the
// moment it announces its listen address, and requires the graceful path:
// the drain line, the store summary, and exit status 0. Before the signal
// handler was installed ahead of the announcement, such a signal killed
// the daemon undrained.
func TestSIGTERMRightAfterStartDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool unavailable: %v", err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "campaignd")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for i := 0; i < 3; i++ {
		cmd := exec.Command(bin, "-http", "127.0.0.1:0", "-store", filepath.Join(dir, "store"), "-log-level", "")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		lines := make(chan string)
		go func() {
			sc := bufio.NewScanner(stderr)
			for sc.Scan() {
				lines <- sc.Text()
			}
			close(lines)
		}()
		var got []string
		signalled := false
		timeout := time.After(30 * time.Second)
	read:
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					break read
				}
				got = append(got, line)
				if !signalled && strings.Contains(line, "serving campaigns") {
					if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
						t.Fatal(err)
					}
					signalled = true
				}
			case <-timeout:
				cmd.Process.Kill()
				t.Fatalf("no clean exit within 30s; stderr so far: %q", got)
			}
		}
		if err := cmd.Wait(); err != nil {
			t.Fatalf("run %d: exit: %v; stderr: %q", i, err, got)
		}
		all := strings.Join(got, "\n")
		for _, want := range []string{"campaignd: draining", "campaignd: store:"} {
			if !strings.Contains(all, want) {
				t.Fatalf("run %d: stderr lacks %q: %q", i, want, got)
			}
		}
	}
}
