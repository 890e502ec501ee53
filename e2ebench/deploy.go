package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tartree/internal/shard"
)

// Durable-mode intervals of the ingest workload, short enough that each
// loop completes several cycles within one timed phase.
const (
	flushEvery      = "1s"
	checkpointEvery = "3s"
)

// server is one tarserve process.
type server struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port once listening
	done chan struct{}
	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
	err  error    // Wait result, valid after done closes
}

var listenRe = regexp.MustCompile(`msg=listening addr=(\S+)`)

// startServer launches tarserve with args plus a loopback listener on a
// free port, and returns once the process has announced its address.
func startServer(ctx context.Context, bin, name string, args []string) (*server, error) {
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	// The server must not outlive the benchmark, even when the benchmark
	// is killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	s := &server{name: name, cmd: cmd, done: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		// Drain stderr for the process's whole life: the server writes an
		// access-log line per request and would block on a full pipe.
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if !announced {
				if m := listenRe.FindStringSubmatch(line); m != nil {
					announced = true
					addrCh <- m[1]
				}
			}
			if strings.Contains(line, "msg=request ") {
				continue
			}
			s.mu.Lock()
			if s.tail = append(s.tail, line); len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr)
		s.err = cmd.Wait()
		close(s.done)
	}()
	select {
	case s.addr = <-addrCh:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("%s exited before listening: %v\n%s", name, s.err, s.stderrTail())
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not announce a listen address within 60s\n%s", name, s.stderrTail())
	}
}

func (s *server) url() string { return "http://" + s.addr }

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// stop ends the process: SIGTERM lets a durable server close its WAL;
// SIGKILL follows if it has not exited within five seconds. It returns
// once the process has been reaped.
func (s *server) stop() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// deployment is the set of processes one workload serves from. front
// answers the load; shards (sharded workload only) sit behind it.
type deployment struct {
	front  *server
	shards []*server
	setup  time.Duration
}

func (d *deployment) all() []*server {
	out := append([]*server(nil), d.shards...)
	if d.front != nil {
		out = append(out, d.front)
	}
	return out
}

func (d *deployment) stop() {
	var wg sync.WaitGroup
	for _, s := range d.all() {
		wg.Add(1)
		go func(s *server) {
			defer wg.Done()
			s.stop()
		}(s)
	}
	wg.Wait()
}

func (d *deployment) peakRSSMB() (float64, error) {
	var sum float64
	for _, s := range d.all() {
		v, err := s.peakRSSMB()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", s.name, err)
		}
		sum += v
	}
	return sum, nil
}

// deploy launches the workload's servers and waits until every one answers
// /healthz 200. setup is measured from the first process launch.
func deploy(ctx context.Context, cfg *config, w *workload, ds *dataset, workDir string) (*deployment, error) {
	base := []string{"-dataset", datasetName, "-scale", strconv.FormatFloat(datasetScale, 'g', -1, 64)}
	dep := &deployment{}
	begin := time.Now()
	fail := func(err error) (*deployment, error) {
		dep.stop()
		return nil, err
	}
	switch {
	case w.shards > 0:
		mapFile := filepath.Join(workDir, "shards.json")
		m, err := shard.Partition(ds.effective, w.shards, ds.d.World)
		if err != nil {
			return nil, err
		}
		if err := m.Save(mapFile); err != nil {
			return nil, err
		}
		begin = time.Now()
		type started struct {
			i   int
			s   *server
			err error
		}
		ch := make(chan started, w.shards)
		for i := 0; i < w.shards; i++ {
			go func(i int) {
				args := append(append([]string(nil), base...), "-shard-of", fmt.Sprintf("%d/%d", i, w.shards), "-shard-map", mapFile)
				s, err := startServer(ctx, cfg.tarserve, fmt.Sprintf("shard-%d", i), args)
				ch <- started{i, s, err}
			}(i)
		}
		dep.shards = make([]*server, w.shards)
		var firstErr error
		for i := 0; i < w.shards; i++ {
			st := <-ch
			dep.shards[st.i] = st.s
			if st.err != nil && firstErr == nil {
				firstErr = st.err
			}
		}
		if firstErr != nil {
			kept := dep.shards[:0]
			for _, s := range dep.shards {
				if s != nil {
					kept = append(kept, s)
				}
			}
			dep.shards = kept
			return fail(firstErr)
		}
		urls := make([]string, len(dep.shards))
		for i, s := range dep.shards {
			urls[i] = s.url()
		}
		front, err := startServer(ctx, cfg.tarserve, "coordinator", append(base, "-coordinator", strings.Join(urls, ",")))
		if err != nil {
			return fail(err)
		}
		dep.front = front
	case w.ingest:
		walDir := filepath.Join(workDir, "wal")
		if err := os.RemoveAll(walDir); err != nil {
			return nil, err
		}
		args := append(base, "-wal-dir", walDir, "-flush-every", flushEvery, "-checkpoint-every", checkpointEvery)
		front, err := startServer(ctx, cfg.tarserve, "tarserve", args)
		if err != nil {
			return nil, err
		}
		dep.front = front
	default:
		front, err := startServer(ctx, cfg.tarserve, "tarserve", base)
		if err != nil {
			return nil, err
		}
		dep.front = front
	}
	client := &http.Client{Timeout: 2 * time.Second}
	for _, s := range dep.all() {
		if err := waitHealthy(ctx, client, s); err != nil {
			return fail(err)
		}
	}
	dep.setup = time.Since(begin)
	return dep, nil
}

// waitHealthy polls /healthz every 10 ms until it answers 200.
func waitHealthy(ctx context.Context, client *http.Client, s *server) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := client.Get(s.url() + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.done:
			return fmt.Errorf("%s exited during start-up: %v\n%s", s.name, s.err, s.stderrTail())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within 120s\n%s", s.name, s.stderrTail())
		}
	}
}

// scrape reads every numeric series of the servers' /metrics, summed over
// processes by series name (labels included).
func scrape(ctx context.Context, servers []*server) (map[string]float64, error) {
	out := make(map[string]float64)
	client := &http.Client{Timeout: 10 * time.Second}
	for _, s := range servers {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url()+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", s.name, err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			out[line[:i]] += v
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", s.name, err)
		}
	}
	return out, nil
}
