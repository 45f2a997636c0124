package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deepmd-go/internal/tensor"
)

// fingerprint identifies the host and build a result file was measured on;
// numbers from different fingerprints are not comparable.
type fingerprint struct {
	CPUModel     string   `json:"cpu_model"`
	NumCPU       int      `json:"nproc"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	OSArch       string   `json:"os_arch"`
	KernelFamily string   `json:"kernel_family"`
	CPUFeatures  []string `json:"cpu_features,omitempty"`
	GitSHA       string   `json:"git_sha"`
}

func hostFingerprint(root string) fingerprint {
	ki := tensor.KernelInfo()
	return fingerprint{
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		OSArch:       runtime.GOOS + "/" + runtime.GOARCH,
		KernelFamily: ki.Family,
		CPUFeatures:  ki.Features,
		GitSHA:       gitSHA(root),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is best-effort: the regression gate runs the harness in a plain
// checkout that is not a git repository.
func gitSHA(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// cpuTimes is user and system CPU time consumed by a process.
type cpuTimes struct{ user, sys time.Duration }

func (c cpuTimes) total() time.Duration { return c.user + c.sys }

func (c cpuTimes) sub(o cpuTimes) cpuTimes { return cpuTimes{c.user - o.user, c.sys - o.sys} }

// selfCPU reads this process's CPU times from getrusage.
func selfCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return cpuTimes{user: tv(ru.Utime), sys: tv(ru.Stime)}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux port Go supports.
const clockTick = 10 * time.Millisecond

// procCPU reads another process's CPU times from /proc/<pid>/stat.
func procCPU(pid int) (cpuTimes, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTimes{}, err
	}
	// The command name (field 2) may hold spaces; fields resume after the
	// closing parenthesis. utime and stime are fields 14 and 15.
	_, rest, ok := strings.Cut(string(data), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return cpuTimes{}, fmt.Errorf("bench: malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return cpuTimes{}, fmt.Errorf("bench: malformed /proc/%d/stat times", pid)
	}
	return cpuTimes{user: time.Duration(ut) * clockTick, sys: time.Duration(st) * clockTick}, nil
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: malformed VmHWM %q", v)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/%d/status", pid)
}
