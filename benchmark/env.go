package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the header of every result: what the numbers below it
// were measured on.
type environment struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	WorkersN   int    `json:"workers_n"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"git_commit"`
}

// workersN is the worker count of place_par_s: every core up to four.
// On a single core it stays at two, so that the parallel code paths
// are still the ones measured; the header then shows nproc = 1 and the
// number is one of an oversubscribed run, never a copy of place_s.
func workersN() int { return max(2, min(runtime.NumCPU(), 4)) }

func readEnvironment() environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return environment{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		WorkersN:   workersN(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		GOGC:       gogc,
		Commit:     gitCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD of the repository in the working directory
// without starting git. The driver's checkouts are not repositories;
// there, and anywhere but at a repository's root, it is "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	name, isRef := strings.CutPrefix(ref, "ref: ")
	if !isRef {
		return ref
	}
	sha, err := os.ReadFile(filepath.Join(".git", name))
	if err != nil {
		return name
	}
	return strings.TrimSpace(string(sha))
}
