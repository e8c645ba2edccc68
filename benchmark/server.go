package main

import (
	"bufio"
	"fmt"
	"html"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/benchmark/loadgen"
)

// server is one crserver process, driven only through what an operator
// has: flags, its two ports, signals and /proc.
type server struct {
	bin, dir   string
	smtpAddr   string
	httpAddr   string
	smarthost  string
	cmd        *exec.Cmd
	exited     chan struct{}
	logFile    *os.File
	httpClient *http.Client
}

// freeAddr reserves a loopback port by binding and releasing it. The
// gap before the server binds it again is the price of the server
// taking its addresses as flags.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// newServer prepares a server whose WAL, snapshot and log live in dir
// and whose challenges go to smarthost. start may be called repeatedly:
// each call is a boot over whatever state the previous one left.
func newServer(bin, dir, smarthost string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &server{bin: bin, dir: dir, smarthost: smarthost, httpClient: &http.Client{Timeout: 30 * time.Second}}
	var err error
	if s.smtpAddr, err = freeAddr(); err != nil {
		return nil, err
	}
	if s.httpAddr, err = freeAddr(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *server) logPath() string { return filepath.Join(s.dir, "server.log") }

// start spawns the process and returns once it answers 220 on the SMTP
// port — the moment a sending MTA could first use it.
func (s *server) start() error {
	users := make([]string, loadgen.Users)
	for i := range users {
		users[i] = "user" + strconv.Itoa(i)
	}
	logFile, err := os.OpenFile(s.logPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.logFile = logFile
	s.cmd = exec.Command(s.bin,
		"-smtp", s.smtpAddr, "-http", s.httpAddr,
		"-domain", loadgen.Domain, "-users", strings.Join(users, ","),
		"-wal-dir", filepath.Join(s.dir, "wal"), "-state", filepath.Join(s.dir, "state.json"),
		"-smarthost", s.smarthost)
	s.cmd.Stdout, s.cmd.Stderr = logFile, logFile
	if err := s.cmd.Start(); err != nil {
		logFile.Close()
		s.cmd = nil
		return err
	}
	s.exited = make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			s.logFile.Close()
			s.cmd = nil
			return fmt.Errorf("crserver exited during start-up, see %s", s.logPath())
		default:
		}
		if conn, err := net.DialTimeout("tcp", s.smtpAddr, time.Second); err == nil {
			_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
			line, err := bufio.NewReader(conn).ReadString('\n')
			conn.Close()
			if err == nil && strings.HasPrefix(line, "220") {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return fmt.Errorf("crserver not ready after 60s, see %s", s.logPath())
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// kill is a crash: SIGKILL, no drain, no snapshot.
func (s *server) kill() {
	if s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Kill()
	<-s.exited
	s.logFile.Close()
	s.cmd = nil
}

// term is an orderly shutdown: SIGTERM, then wait for the drain to
// finish. It returns how long the process took to exit.
func (s *server) term(timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case <-s.exited:
	case <-time.After(timeout):
		s.kill()
		return 0, fmt.Errorf("crserver did not exit within %v of SIGTERM", timeout)
	}
	took := time.Since(start)
	code := s.cmd.ProcessState.ExitCode()
	s.logFile.Close()
	s.cmd = nil
	if code != 0 {
		return took, fmt.Errorf("crserver exited with code %d after SIGTERM", code)
	}
	return took, nil
}

// scrape reads /metrics into a name → value map.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.httpClient.Get("http://" + s.httpAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	m := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

var authorizeForm = regexp.MustCompile(`action="([^"]*/authorize\?msg=[^"]*)"`)

// whitelistPairs whitelists pairs (user, contact) pairs the way a user
// of the product does: each contact writes once, the message lands in
// the user's quarantine, and the user authorizes it from the digest
// page. Only public surfaces are touched.
func (s *server) whitelistPairs(spec loadgen.Spec, bodies *loadgen.Bodies, seed int64) error {
	if spec.Pairs == 0 {
		return nil
	}
	mix := loadgen.NewMix(spec, bodies, seed, 0)
	c := &loadgen.Client{Addr: s.smtpAddr}
	defer c.Close()
	for p := 0; p < spec.Pairs; p++ {
		code, _, err := c.Do(mix.SeedTx(p), time.Time{})
		if err != nil || code != 250 {
			return fmt.Errorf("seeding pair %d: reply %d: %v", p, code, err)
		}
	}
	authorized := 0
	for u := 0; u < min(loadgen.Users, spec.Pairs); u++ {
		user, _ := loadgen.PairAddrs(u)
		resp, err := s.httpClient.Get("http://" + s.httpAddr + "/digest/" + url.PathEscape(user))
		if err != nil {
			return err
		}
		page, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			return fmt.Errorf("digest of %s: %s: %v", user, resp.Status, err)
		}
		for _, m := range authorizeForm.FindAllSubmatch(page, -1) {
			resp, err := s.httpClient.Post("http://"+s.httpAddr+html.UnescapeString(string(m[1])), "application/x-www-form-urlencoded", nil)
			if err != nil {
				return err
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("authorize %s: %s", m[1], resp.Status)
			}
			authorized++
		}
	}
	if authorized != spec.Pairs {
		return fmt.Errorf("digest UI offered %d messages to authorize, want %d", authorized, spec.Pairs)
	}
	return nil
}
