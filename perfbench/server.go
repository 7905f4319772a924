package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// server is a running decided process and the one keep-alive client the
// server workloads drive it with.
type server struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	done   chan struct{} // closed once stdout is drained
}

// startServer launches decided on a free port over cacheDir at
// GOMAXPROCS=1 and returns once its "listening on" handshake line names
// the bound address.
func startServer(bin, cacheDir string) (*server, error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-cache-dir", cacheDir, "-max-inflight", "1")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	// A benchmark killed by its caller takes decided down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting decided: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	if err != nil {
		s.kill()
		return nil, fmt.Errorf("decided exited before its handshake: %w", err)
	}
	const prefix = "decided: listening on "
	if !strings.HasPrefix(line, prefix) {
		s.kill()
		return nil, fmt.Errorf("unexpected decided handshake %q", line)
	}
	s.url = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	go func() {
		io.Copy(io.Discard, br)
		close(s.done)
	}()
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// post sends one request and returns the status, the X-Cache-Stats header
// and the whole body.
func (s *server) post(path string, body []byte) (int, string, []byte, error) {
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache-Stats"), data, err
}

// stop shuts decided down the way an operator does (SIGTERM, graceful
// drain) and waits for it to exit; a server that does not exit within
// ten seconds is killed.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return s.kill()
	}
	exited := make(chan error, 1)
	go func() { exited <- s.wait() }()
	select {
	case err := <-exited:
		return err
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("decided did not exit within 10s of SIGTERM")
	}
}

func (s *server) kill() error {
	s.cmd.Process.Kill()
	return s.wait()
}

// wait reaps the process after its stdout reader has finished, as
// exec.Cmd.Wait requires.
func (s *server) wait() error {
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
	}
	return s.cmd.Wait()
}
