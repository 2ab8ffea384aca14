package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// runMeta identifies what ran where: two results are comparable only
// when they share the box shape, toolchain and offered schedule.
type runMeta struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// Commit and Dirty come from git when the checkout is a repository
	// (run.sh passes them in); a plain source tree reports "unknown".
	// SourceHash always identifies the exact Go sources built,
	// repository or not.
	Commit     string `json:"commit"`
	Dirty      string `json:"dirty"`
	SourceHash string `json:"source_hash"`
	Schedule   string `json:"schedule_hash"`
}

func collectMeta(a runArgs) (runMeta, error) {
	m := runMeta{
		Workload:   a.workload,
		Seed:       a.seed,
		Seconds:    int(a.budget.Seconds()),
		Trace:      a.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
		Dirty:      "unknown",
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		m.Commit, m.Dirty = c, os.Getenv("PERFBENCH_DIRTY")
	}
	h, err := sourceHash(".")
	if err != nil {
		return m, err
	}
	m.SourceHash = h
	return m, nil
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash is a SHA-256 over the path and bytes of every Go source and
// module file under root, in path order, skipping build and result
// directories.
func sourceHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", ".bench_out":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return "", err
		}
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
