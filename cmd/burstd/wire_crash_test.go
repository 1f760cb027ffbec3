package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"histburst/internal/segstore"
	"histburst/internal/stream"
	"histburst/internal/wire"
)

// The wire acked-prefix contract against a real process death: a child
// burstd serves HBP1 over a WALSyncAlways store, the parent streams
// appends through a wire.Client recording every ack it receives, then
// SIGKILLs the child mid-stream and recovers the store. Every element the
// client saw acked must have survived — the transport-level mirror of the
// Stager SIGKILL test in internal/segstore, with the network and the
// credit window between the ack and the WAL.

const (
	wireChildEnv = "BURSTD_WIRE_CHILD"
	wireDirEnv   = "BURSTD_WIRE_DIR"
)

// TestCrashWireChildProcess is the child's serving loop, not a test: it
// runs only when re-executed by TestCrashWireAckContractSurvivesKill,
// prints the port it listens on, and never exits on its own.
func TestCrashWireChildProcess(t *testing.T) {
	if os.Getenv(wireChildEnv) == "" {
		t.Skip("subprocess helper")
	}
	srv, err := newServer(serverOpts{
		K: 64, Gamma: 2, Seed: 7,
		SnapDir: os.Getenv(wireDirEnv),
		WALSync: segstore.WALSyncAlways,
		Logf:    func(string, ...any) {},
	})
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	wl, err := listenWire(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("child listen: %v", err)
	}
	fmt.Printf("WIREPORT=%d\n", wl.Addr().(*net.TCPAddr).Port)
	select {} // unreachable: the parent kills us
}

func TestCrashWireAckContractSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	var acked int64
	next := int64(1) // element times stay monotonic across rounds
	for round := 0; round < 3; round++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestCrashWireChildProcess$")
		cmd.Env = append(os.Environ(), wireChildEnv+"=1", wireDirEnv+"="+dir)
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = cmd.Stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(out)
		port := ""
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "FAIL") || strings.Contains(line, "SKIP") {
				t.Fatalf("round %d: child did not serve: %s", round, line)
			}
			if p, ok := strings.CutPrefix(line, "WIREPORT="); ok {
				port = p
				break
			}
		}
		if port == "" {
			cmd.Process.Kill() //histburst:allow errdrop -- cleanup on a failed spawn
			t.Fatalf("round %d: child never printed its port", round)
		}

		wc, err := wire.Dial("127.0.0.1:"+port, 5*time.Second)
		if err != nil {
			t.Fatalf("round %d: dial: %v", round, err)
		}
		// Kill the child mid-stream while the client keeps appending. Acks
		// the client already holds are durable no matter when the SIGKILL
		// lands; Append returns the partial aggregate alongside the error.
		killed := make(chan struct{})
		go func() {
			defer close(killed)
			time.Sleep(time.Duration(100+50*round) * time.Millisecond)
			cmd.Process.Kill() //histburst:allow errdrop -- the kill racing child exit is fine
		}()
		for {
			batch := make(stream.Stream, 64)
			for j := range batch {
				batch[j] = stream.Element{Event: uint64(j % 16), Time: next}
				next++
			}
			res, err := wc.Append(batch)
			acked += res.Appended
			if err != nil {
				break
			}
		}
		wc.Close()
		<-killed
		cmd.Wait() //histburst:allow errdrop -- the child was killed; a non-zero exit is the expected outcome

		re, err := newServer(serverOpts{
			K: 64, Gamma: 2, Seed: 7,
			SnapDir: dir,
			WALSync: segstore.WALSyncAlways,
			Logf:    t.Logf,
		})
		if err != nil {
			t.Fatalf("round %d: recovery after kill: %v", round, err)
		}
		if got := re.store.N(); got < acked {
			t.Fatalf("round %d: recovered %d elements but %d were acked over the wire", round, got, acked)
		}
		if err := re.store.Close(); err != nil {
			t.Fatalf("round %d: close recovered store: %v", round, err)
		}
	}
	if acked == 0 {
		t.Fatal("no appends were ever acked; harness broken")
	}
}
