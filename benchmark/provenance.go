package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// provenance is the header every output file carries: enough to tell two
// sets of numbers apart by what produced them.
type provenance struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"nproc"`
	Kernel     string         `json:"kernel"`
	Filesystem string         `json:"filesystem"` // of the directory the durable store lives in
	Workload   string         `json:"workload,omitempty"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Timestamp  string         `json:"timestamp"`
	Samples    map[string]int `json:"samples,omitempty"`
}

func (r *run) provenance() provenance {
	p := hostProvenance(r.outDir, r.seed, r.seconds)
	p.Workload, p.Samples = r.w.name, r.counts
	return p
}

func hostProvenance(dir string, seed int64, seconds int) provenance {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return provenance{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Kernel:     strings.TrimSpace(string(kernel)),
		Filesystem: filesystemOf(dir),
		Seed:       seed,
		Seconds:    seconds,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
}

// commit is the VCS revision the Go tool stamped into the binary, or
// "unknown" when the source tree was not a repository (the driver's
// checkout is not).
func commit() string {
	rev, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// cpuTimes reads the machine-wide busy and stolen CPU time, in clock ticks,
// from the first line of /proc/stat; zeros where that file does not exist.
// Stolen time is what the hypervisor gave to other tenants while this
// machine had work to do.
func cpuTimes() (busy, stolen float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:9] {
		v, _ := strconv.ParseFloat(s, 64)
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			stolen = v
		default:
			busy += v
		}
	}
	return busy, stolen
}

// filesystemOf names the filesystem type of the mount holding dir, from
// /proc/mounts; "unknown" where that file does not exist.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := "", "unknown"
	for _, line := range strings.Split(string(mounts), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		inside := abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")
		if inside && len(mp) >= len(best) {
			best, fstype = mp, f[2]
		}
	}
	return fstype
}
