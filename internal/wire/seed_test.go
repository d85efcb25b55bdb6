package wire

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ucc/internal/model"
)

// seedDir holds a directory of seeds per fuzz target.
const seedDir = "testdata/fuzz"

// batchOfOneTypes are the message types that declare the six tags whose
// corpus messages are batches of one: a per-copy step travels as a batch of
// one under its single message's tag.
var batchOfOneTypes = map[model.WireTag]model.Message{
	model.TagRequest:       model.RequestMsg{},
	model.TagRelease:       model.ReleaseMsg{},
	model.TagAbort:         model.AbortMsg{},
	model.TagGrant:         model.GrantMsg{},
	model.TagSnapRead:      model.SnapReadMsg{},
	model.TagSnapReadReply: model.SnapReadReplyMsg{},
}

// seedFiles returns the seed corpora, file path under seedDir to contents.
// FuzzWireRoundTrip's holds one file per wire tag, the first corpus
// envelope carrying it, plus the first fill form of the log-shipping pull
// and reply. A seed is named after its tag and the message type that
// declares the tag, so every form sent under one tag names the same file.
// FuzzWireStream's is streamSeeds.
func seedFiles(t *testing.T) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for _, env := range Corpus() {
		tag, _ := model.MessageTag(env.Msg)
		declaring := env.Msg
		if m, ok := batchOfOneTypes[tag]; ok {
			declaring = m
		}
		name := fmt.Sprintf("FuzzWireRoundTrip/tag-%02d-%T", tag, declaring)
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
		if _, ok := files[name]; ok {
			continue
		}
		payload, err := payloadOf(env)
		if err != nil {
			t.Fatal(err)
		}
		files[name] = fmt.Appendf(nil, "go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(payload)))
	}
	for _, s := range streamSeeds() {
		files["FuzzWireStream/"+s.name] = fmt.Appendf(nil, "go test fuzz v1\n[]byte(%s)\n[]byte(%s)\n",
			strconv.Quote(string(s.script)), strconv.Quote(string(s.tail)))
	}
	return files
}

// TestWriteSeedCorpus regenerates the committed fuzz seed corpus
// (seedFiles) when WIRE_WRITE_CORPUS=1. Run after adding a message type:
//
//	WIRE_WRITE_CORPUS=1 go test ./internal/wire -run TestWriteSeedCorpus
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("WIRE_WRITE_CORPUS") == "" {
		t.Skip("set WIRE_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	files := seedFiles(t)
	for name, body := range files {
		path := filepath.Join(seedDir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d seed inputs to %s", len(files), seedDir)
}

// TestSeedCorpusCommitted fails if the checked-in corpus lacks a tag-NN-*
// seed for any wire tag but the retired ones, or holds one for a retired
// tag — the CI fuzz job depends on seeds existing so the first fuzz
// iteration exercises every message type.
func TestSeedCorpusCommitted(t *testing.T) {
	for tag := model.TagRequest; tag <= model.TagLast; tag++ {
		seeds, _ := filepath.Glob(filepath.Join(seedDir, "FuzzWireRoundTrip", fmt.Sprintf("tag-%02d-*", tag)))
		if (len(seeds) == 0) != model.TagRetired(tag) {
			t.Errorf("tag %d (retired %v) has seeds %v (run WIRE_WRITE_CORPUS=1 go test -run TestWriteSeedCorpus ./internal/wire)", tag, model.TagRetired(tag), seeds)
		}
	}
}

// TestSeedCorpusRegeneratesUnchanged fails if regenerating the corpus would
// change the committed FuzzWireRoundTrip tag-NN-* seeds or FuzzWireStream
// seeds: a seed missing, stale or extra (a second name for one tag would be
// committed beside the first and fuzzed twice).
func TestSeedCorpusRegeneratesUnchanged(t *testing.T) {
	want := seedFiles(t)
	committed, err := filepath.Glob(filepath.Join(seedDir, "FuzzWireRoundTrip", "tag-*"))
	if err != nil {
		t.Fatal(err)
	}
	stream, err := filepath.Glob(filepath.Join(seedDir, "FuzzWireStream", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(committed, stream...) {
		name := filepath.ToSlash(strings.TrimPrefix(path, seedDir+string(filepath.Separator)))
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("committed seed %s is not one the corpus writes", name)
		case !bytes.Equal(body, w):
			t.Errorf("committed seed %s differs from the corpus's", name)
		}
		delete(want, name)
	}
	for _, name := range slices.Sorted(maps.Keys(want)) {
		t.Errorf("seed %s is not committed (run WIRE_WRITE_CORPUS=1 go test -run TestWriteSeedCorpus ./internal/wire)", name)
	}
}
