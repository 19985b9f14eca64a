package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// golden.json maps each job key to the SHA-256 of the bytes
// `cascade-sim -exp E -json` prints for it. -regen-golden rewrites it from
// the binaries of the tree being benchmarked; run it only on a commit
// whose outputs are known good.
//
//go:embed testdata/golden.json
var goldenJSON []byte

const goldenFile = "bench/e2e/testdata/golden.json"

type goldens map[string]string

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func hashBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// check compares one result's bytes, in the CLI's -json rendering, with
// the job's golden hash.
func (g goldens) check(j job, b []byte) error {
	want, ok := g[j.key()]
	if !ok {
		return fmt.Errorf("%s: no golden hash", j.key())
	}
	if got := hashBytes(b); got != want {
		return fmt.Errorf("%s: result hash %s, golden %s", j.key(), got[:12], want[:12])
	}
	return nil
}

// cliRendering turns a result as the HTTP envelope carries it (compacted
// by the envelope's encoder) back into the CLI's indented -json bytes,
// which is what the goldens hash. Any difference beyond whitespace still
// changes the hash.
func cliRendering(raw []byte) ([]byte, error) {
	var b bytes.Buffer
	if err := json.Indent(&b, raw, "", "  "); err != nil {
		return nil, err
	}
	b.WriteByte('\n')
	return b.Bytes(), nil
}

func cliArgs(j job) []string {
	return []string{"-exp", j.Experiment, "-json", "-q",
		"-scale", strconv.FormatFloat(j.Params.Scale, 'g', -1, 64),
		"-chunk", strconv.Itoa(j.Params.ChunkKB), "-n", strconv.Itoa(j.Params.N)}
}

// regenGoldens runs every job of every workload through cascade-sim and
// writes the hashes to golden.json under root.
func regenGoldens(bins binaries, root string) error {
	g := goldens{}
	for _, j := range allJobs() {
		out, err := command(bins.sim, cliArgs(j)...).Output()
		if err != nil {
			return fmt.Errorf("%s: %w", j.key(), err)
		}
		g[j.key()] = hashBytes(out)
		fmt.Printf("%s %s\n", g[j.key()], j.key())
	}
	b, err := json.MarshalIndent(g, "", "  ") // map keys come out sorted
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, goldenFile), append(b, '\n'), 0o644)
}
