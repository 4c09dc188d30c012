package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	elsa "github.com/elsa-hpc/elsa"
	"github.com/elsa-hpc/elsa/internal/ingest"
)

var testStart = time.Date(2006, 1, 2, 15, 0, 0, 0, time.UTC)

var shared struct {
	once   sync.Once
	blob   string // saved model JSON
	stream []elsa.Record
}

// fixture trains a model on half a synthetic BGL log (once per process),
// saves it to a per-test path and returns part of the held-out half —
// enough stream for every shard to see traffic without slowing the
// command tests down.
func fixture(t *testing.T) (modelPath string, stream []elsa.Record) {
	t.Helper()
	shared.once.Do(func() {
		log := elsa.GenerateBGL(91, testStart, 4*24*time.Hour)
		cut := testStart.Add(2 * 24 * time.Hour)
		train, test, _ := log.Split(cut)
		model := elsa.Train(train, testStart, cut, elsa.DefaultTrainConfig())
		var sb strings.Builder
		if err := model.Save(&sb); err != nil {
			t.Fatal(err)
		}
		shared.blob, shared.stream = sb.String(), test[:len(test)/2]
	})
	modelPath = filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(modelPath, []byte(shared.blob), 0o644); err != nil {
		t.Fatal(err)
	}
	return modelPath, shared.stream
}

func canonical(t *testing.T, recs []elsa.Record) string {
	t.Helper()
	var sb strings.Builder
	if err := elsa.WriteLog(&sb, recs); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out, errw strings.Builder
	if err := run(nil, strings.NewReader(""), &out, &errw); err == nil {
		t.Error("run without -model succeeded")
	}
	modelPath, _ := fixture(t)
	if err := run([]string{"-model", modelPath, "-scope", "cluster"},
		strings.NewReader(""), &out, &errw); err == nil {
		t.Error("unknown -scope accepted")
	}
	if err := run([]string{"-model", modelPath, "-shards", "0"},
		strings.NewReader(""), &out, &errw); err == nil {
		t.Error("non-positive -shards accepted")
	}
	if err := run([]string{"-model", modelPath, "-ingest", "file"},
		strings.NewReader(""), &out, &errw); err == nil {
		t.Error("-ingest file without -in accepted")
	}
}

// TestRunShardsStream drives a 4-shard fleet over stdin: the merged
// stream must carry shard/seq attribution on every line, and the final
// status table must expose each shard's supervisor health.
func TestRunShardsStream(t *testing.T) {
	modelPath, stream := fixture(t)
	var out, errw strings.Builder
	err := run([]string{"-model", modelPath, "-late", "-shards", "4", "-status-every", "20000"},
		strings.NewReader(canonical(t, stream)), &out, &errw)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errw.String())
	}
	if out.Len() == 0 {
		t.Fatal("no predictions printed; fixture too quiet to exercise the fleet")
	}
	for _, line := range strings.Split(strings.TrimRight(out.String(), "\n"), "\n") {
		if !strings.Contains(line, " shard=shard") || !strings.Contains(line, " seq=") {
			t.Fatalf("prediction line missing shard/seq attribution: %q", line)
		}
	}
	es := errw.String()
	if !strings.Contains(es, "entries lost") {
		t.Errorf("summary line missing from stderr:\n%s", es)
	}
	for _, name := range []string{"shard0", "shard1", "shard2", "shard3"} {
		if !strings.Contains(es, "shard "+name) {
			t.Errorf("status table missing %s:\n%s", name, es)
		}
	}
	if !strings.Contains(es, "trips=0") || !strings.Contains(es, "health=ok") {
		t.Errorf("status table missing supervisor health columns:\n%s", es)
	}
	if strings.Count(es, "shard shard0") < 2 {
		t.Errorf("-status-every did not print periodic tables:\n%s", es)
	}
}

// TestRunSocketMatchesStdin is the multi-process deployment shape: a
// producer dials the fleet's socket listener and streams CRC-framed
// records; the merged prediction output must be byte-identical to the
// same stream fed over stdin.
func TestRunSocketMatchesStdin(t *testing.T) {
	modelPath, stream := fixture(t)

	var want, errw strings.Builder
	if err := run([]string{"-model", modelPath, "-late", "-shards", "2"},
		strings.NewReader(canonical(t, stream)), &want, &errw); err != nil {
		t.Fatalf("stdin run: %v", err)
	}
	if want.Len() == 0 {
		t.Fatal("fixture produced no predictions; equivalence proves nothing")
	}

	sock := filepath.Join(t.TempDir(), "elsa.sock")
	done := make(chan error, 1)
	go func() {
		// The listener comes up inside run; retry the dial until it does.
		var conn net.Conn
		var err error
		for i := 0; i < 200; i++ {
			if conn, err = net.Dial("unix", sock); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		fc := ingest.NewFrameConn(conn)
		for _, rec := range stream {
			if err := fc.WriteRecord(rec); err != nil {
				done <- err
				return
			}
		}
		done <- fc.End()
	}()
	var sockOut strings.Builder
	errw.Reset()
	if err := run([]string{"-model", modelPath, "-late", "-shards", "2", "-ingest", "socket", "-listen", "unix:" + sock},
		strings.NewReader(""), &sockOut, &errw); err != nil {
		t.Fatalf("socket run: %v\nstderr:\n%s", err, errw.String())
	}
	if err := <-done; err != nil {
		t.Fatalf("socket producer: %v", err)
	}
	if sockOut.String() != want.String() {
		t.Error("socket backend output differs from the stdin run")
	}
}
