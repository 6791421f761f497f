package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"stateowned"
	"stateowned/internal/durable"
)

// fsOp is one call through the archive's filesystem seam.
type fsOp struct {
	op         string
	start, end time.Time
	bytes      int
	fsync      bool
	write      bool // part of the write path (not a recovery read)
}

// fsLog collects the calls a timedFS saw.
type fsLog struct {
	mu  sync.Mutex
	ops []fsOp
}

func (l *fsLog) add(op string, start time.Time, bytes int, fsync, write bool) {
	l.mu.Lock()
	l.ops = append(l.ops, fsOp{op: op, start: start, end: time.Now(), bytes: bytes, fsync: fsync, write: write})
	l.mu.Unlock()
}

// writesBetween returns the write-path calls that started in [a, b].
func (l *fsLog) writesBetween(a, b time.Time) []fsOp {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []fsOp
	for _, o := range l.ops {
		if o.write && !o.start.Before(a) && !o.start.After(b) {
			out = append(out, o)
		}
	}
	return out
}

// timedFS wraps the archive's filesystem seam and logs every call with
// its duration, byte count and whether it was an fsync.
type timedFS struct {
	durable.FS
	log *fsLog
}

func (f timedFS) MkdirAll(dir string) error {
	t := time.Now()
	err := f.FS.MkdirAll(dir)
	f.log.add("MkdirAll", t, 0, false, true)
	return err
}

func (f timedFS) Create(name string) (durable.FileWriter, error) {
	t := time.Now()
	w, err := f.FS.Create(name)
	f.log.add("Create", t, 0, false, true)
	if err != nil {
		return nil, err
	}
	return timedFile{w, f.log}, nil
}

func (f timedFS) OpenAppend(name string) (durable.FileWriter, error) {
	t := time.Now()
	w, err := f.FS.OpenAppend(name)
	f.log.add("OpenAppend", t, 0, false, true)
	if err != nil {
		return nil, err
	}
	return timedFile{w, f.log}, nil
}

func (f timedFS) Rename(oldname, newname string) error {
	t := time.Now()
	err := f.FS.Rename(oldname, newname)
	f.log.add("Rename", t, 0, false, true)
	return err
}

func (f timedFS) Remove(name string) error {
	t := time.Now()
	err := f.FS.Remove(name)
	f.log.add("Remove", t, 0, false, true)
	return err
}

func (f timedFS) SyncDir(dir string) error {
	t := time.Now()
	err := f.FS.SyncDir(dir)
	f.log.add("SyncDir", t, 0, true, true)
	return err
}

func (f timedFS) ReadFile(name string) ([]byte, error) {
	t := time.Now()
	b, err := f.FS.ReadFile(name)
	f.log.add("ReadFile", t, len(b), false, false)
	return b, err
}

func (f timedFS) ReadDir(dir string) ([]string, error) {
	t := time.Now()
	names, err := f.FS.ReadDir(dir)
	f.log.add("ReadDir", t, 0, false, false)
	return names, err
}

type timedFile struct {
	durable.FileWriter
	log *fsLog
}

func (w timedFile) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := w.FileWriter.Write(p)
	w.log.add("Write", t, n, false, true)
	return n, err
}

func (w timedFile) Sync() error {
	t := time.Now()
	err := w.FileWriter.Sync()
	w.log.add("Sync", t, 0, true, true)
	return err
}

func (w timedFile) Close() error {
	t := time.Now()
	err := w.FileWriter.Close()
	w.log.add("Close", t, 0, false, true)
	return err
}

// nodeLog records when each pipeline node started, through the
// pipeline's build-hook seam. Node walls come from the build's own
// Health.Timings; the hook adds the start instants, which place each
// node on the timeline.
type nodeLog struct {
	mu     sync.Mutex
	starts []nodeStart
}

type nodeStart struct {
	node string
	at   time.Time
}

// installNodeLog installs the build hook. It is process-global, so only
// runs with a single builder at a time install it.
func installNodeLog() (*nodeLog, func()) {
	l := &nodeLog{}
	restore := stateowned.SetBuildHook(func(node string) {
		l.mu.Lock()
		l.starts = append(l.starts, nodeStart{node, time.Now()})
		l.mu.Unlock()
	})
	return l, restore
}

// between returns node name → start for starts in [a, b].
func (l *nodeLog) between(a, b time.Time) map[string]time.Time {
	out := map[string]time.Time{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.starts {
		if !s.at.Before(a) && !s.at.After(b) {
			out[s.node] = s.at
		}
	}
	return out
}

// rtStats is a snapshot of the Go runtime's cumulative counters.
type rtStats struct {
	totalAlloc uint64
	pauseNs    uint64
	gcCPU      float64 // CPU seconds spent in the garbage collector
	totalCPU   float64 // CPU seconds available to the process
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	return rtStats{
		totalAlloc: ms.TotalAlloc,
		pauseNs:    ms.PauseTotalNs,
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
