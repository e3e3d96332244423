package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// ledger is the determinism guard. The layouts and counts a workload
// produces are a pure function of its seed, so every run with the same
// binary and seed must record the same values; a disagreement, within a run
// or against an earlier one, is counted as a mismatch and makes the run
// incorrect. A benchmark whose outputs wander therefore cannot pass as a
// steady one.
//
// The ledger file holds, per benchmark binary, workload and seed, the layout
// hashes and exact counts of earlier runs. It lives in the build directory,
// so it belongs to one checkout, and a rebuilt binary starts afresh.
type ledger struct {
	path       string
	prefix     string // binary hash, workload and seed
	entries    map[string]string
	mismatches int
}

func openLedger(path, workload string, seed int64) (*ledger, error) {
	bin, err := binaryHash()
	if err != nil {
		return nil, err
	}
	l := &ledger{path: path, prefix: fmt.Sprintf("%s/%s/%d/", bin, workload, seed), entries: map[string]string{}}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, fmt.Errorf("read ledger: %w", err)
	default:
		if err := json.Unmarshal(data, &l.entries); err != nil {
			return nil, fmt.Errorf("parse ledger %s: %w", path, err)
		}
	}
	return l, nil
}

// check records value under item, or compares it with the value recorded
// earlier for the same binary, workload, seed and item.
func (l *ledger) check(item, value string) {
	k := l.prefix + item
	old, ok := l.entries[k]
	if !ok {
		l.entries[k] = value
		return
	}
	if old != value {
		l.mismatches++
		fmt.Fprintf(os.Stderr, "perfbench: determinism: %s was %q, now %q\n", k, old, value)
	}
}

// save writes the ledger back atomically.
func (l *ledger) save() error {
	data, err := json.MarshalIndent(l.entries, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(l.path), 0o755); err != nil {
		return err
	}
	tmp := l.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("write ledger: %w", err)
	}
	return os.Rename(tmp, l.path)
}

// binaryHash identifies the running build.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hash %s: %w", exe, err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
