package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ucc/internal/model"
)

const seedDir = "testdata/fuzz/FuzzWireRoundTrip"

// TestWriteSeedCorpus regenerates the committed fuzz seed corpus (one file
// per wire tag, first corpus envelope carrying it) when WIRE_WRITE_CORPUS=1.
// Run after adding a message type:
//
//	WIRE_WRITE_CORPUS=1 go test ./internal/wire -run TestWriteSeedCorpus
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("WIRE_WRITE_CORPUS") == "" {
		t.Skip("set WIRE_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	if err := os.MkdirAll(seedDir, 0o755); err != nil {
		t.Fatal(err)
	}
	written := map[model.WireTag]bool{}
	for _, env := range Corpus() {
		tag, _ := model.MessageTag(env.Msg)
		if written[tag] {
			continue
		}
		written[tag] = true
		payload, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(payload)))
		name := filepath.Join(seedDir, fmt.Sprintf("tag-%02d-%T", tag, env.Msg))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d seed inputs to %s", len(written), seedDir)
}

// TestSeedCorpusCommitted fails if the checked-in corpus lacks a tag-NN-*
// seed for any wire tag — the CI fuzz job depends on seeds existing so the
// first fuzz iteration exercises every message type.
func TestSeedCorpusCommitted(t *testing.T) {
	for tag := model.TagRequest; tag <= model.TagLast; tag++ {
		if seeds, _ := filepath.Glob(filepath.Join(seedDir, fmt.Sprintf("tag-%02d-*", tag))); len(seeds) == 0 {
			t.Errorf("no seed for tag %d (run WIRE_WRITE_CORPUS=1 go test -run TestWriteSeedCorpus ./internal/wire)", tag)
		}
	}
}
