package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateJSON = flag.Bool("update", false, "rewrite testdata/json.golden from the current -json output")

// TestJSONOutputGolden pins `hefopt -json` stdout for murmur and probe on
// silver at -elems 2048, with an unlimited budget and with -budget 12. Each
// run adds the SHA-256 and length of its stdout and its stderr memo
// counter line; internal/hefd pins the reports of its own pipeline for the
// same operators.
func TestJSONOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("operator searches are slow")
	}
	var b bytes.Buffer
	for _, budget := range []string{"0", "12"} {
		args := []string{"-cpu", "silver", "-op", "murmur,probe", "-elems", "2048", "-budget", budget, "-json", "-parallel", "1"}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		cmd := exec.CommandContext(ctx, os.Args[0])
		cmd.Env = append(os.Environ(), mainArgsEnv+"="+strings.Join(args, "\x1f"))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		cancel()
		if err != nil {
			t.Fatalf("hefopt %s: %v\nstderr:\n%s", strings.Join(args, " "), err, stderr.String())
		}
		fmt.Fprintf(&b, "budget=%s %x %d\n", budget, sha256.Sum256(stdout.Bytes()), stdout.Len())
		for _, line := range strings.Split(stderr.String(), "\n") {
			if strings.HasPrefix(line, "hefopt: memo cache:") {
				fmt.Fprintf(&b, "budget=%s %s\n", budget, line)
			}
		}
	}

	path := filepath.Join("testdata", "json.golden")
	if *updateJSON {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("hefopt -json output differs from %s:\ngot:\n%s\nwant:\n%s", path, b.Bytes(), want)
	}
}
