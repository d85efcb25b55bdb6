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
// per wire tag, first corpus envelope carrying it, plus the first fill form
// of the log-shipping pull and reply) when WIRE_WRITE_CORPUS=1. Run after
// adding a message type:
//
//	WIRE_WRITE_CORPUS=1 go test ./internal/wire -run TestWriteSeedCorpus
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("WIRE_WRITE_CORPUS") == "" {
		t.Skip("set WIRE_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	if err := os.MkdirAll(seedDir, 0o755); err != nil {
		t.Fatal(err)
	}
	written := map[string]bool{}
	for _, env := range Corpus() {
		tag, _ := model.MessageTag(env.Msg)
		name := fmt.Sprintf("tag-%02d-%T", tag, env.Msg)
		switch m := env.Msg.(type) {
		case model.ReplPullMsg:
			if m.Epoch != 0 {
				name += "-fill"
			}
		case model.ReplRecordsMsg:
			if m.Epoch != 0 {
				name += "-fill"
			}
		}
		if written[name] {
			continue
		}
		written[name] = true
		payload, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(payload)))
		if err := os.WriteFile(filepath.Join(seedDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d seed inputs to %s", len(written), seedDir)
}

// TestSeedCorpusCommitted fails if the checked-in corpus lacks a tag-NN-*
// seed for any wire tag but the retired ones, or holds one for a retired
// tag — the CI fuzz job depends on seeds existing so the first fuzz
// iteration exercises every message type.
func TestSeedCorpusCommitted(t *testing.T) {
	for tag := model.TagRequest; tag <= model.TagLast; tag++ {
		seeds, _ := filepath.Glob(filepath.Join(seedDir, fmt.Sprintf("tag-%02d-*", tag)))
		if (len(seeds) == 0) != model.TagRetired(tag) {
			t.Errorf("tag %d (retired %v) has seeds %v (run WIRE_WRITE_CORPUS=1 go test -run TestWriteSeedCorpus ./internal/wire)", tag, model.TagRetired(tag), seeds)
		}
	}
}
