package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ucc/internal/model"
	"ucc/internal/storage"
)

// snapshot is a point-in-time image of one site's store: the full retained
// version chain of every physical copy, plus the sequence number of the last
// journaled record already reflected in those chains. Records with
// Seq > AppliedSeq form the log tail that replays on top. Chains (not just
// latest values) are imaged so that a recovered site can keep serving
// snapshot reads at timestamps that predate the crash.
type snapshot struct {
	AppliedSeq uint64
	Site       model.SiteID
	Chains     []storage.CopyChain
	// gen is the generation in the snapshot's name (snapName); set by
	// newestSnapshot.
	gen uint64
}

// snapVersionBytes encodes one storage.Version:
// value | version | writer site | writer seq | commit micros.
const snapVersionBytes = 8 + 8 + 4 + 8 + 8

// appendSnapshot appends to dst the image of store with the given applied
// sequence: crc32C(body) | body, where body is appliedSeq | site | copyCount |
// copyCount × (item | versionCount | versionCount × version), copies in
// ascending item order. The chains are encoded straight from storage through
// Store.EachChain, under the store's barrier; the copy count and the
// checksum are patched in once every chain is written.
func appendSnapshot(dst []byte, appliedSeq uint64, store *storage.Store) []byte {
	le := binary.LittleEndian
	start := len(dst)
	dst = le.AppendUint32(dst, 0) // checksum, patched below
	dst = le.AppendUint64(dst, appliedSeq)
	dst = le.AppendUint32(dst, uint32(store.Site()))
	countAt := len(dst)
	dst = le.AppendUint32(dst, 0) // copy count, patched below
	var copies uint32
	store.EachChain(func(id model.CopyID, vs []storage.Version) {
		dst = le.AppendUint32(dst, uint32(id.Item))
		dst = le.AppendUint32(dst, uint32(len(vs)))
		for _, v := range vs {
			dst = le.AppendUint64(dst, uint64(v.Value))
			dst = le.AppendUint64(dst, v.Version)
			dst = le.AppendUint32(dst, uint32(v.Writer.Site))
			dst = le.AppendUint64(dst, v.Writer.Seq)
			dst = le.AppendUint64(dst, uint64(v.CommitMicros))
		}
		copies++
	})
	le.PutUint32(dst[countAt:], copies)
	le.PutUint32(dst[start:], crc32.Checksum(dst[start+4:], crcTable))
	return dst
}

// decodeSnapshot validates the checksum and decodes; a torn or corrupt
// snapshot returns an error (recovery then falls back to an older one).
func decodeSnapshot(data []byte) (snapshot, error) {
	var s snapshot
	if len(data) < 4+8+4+4 {
		return s, fmt.Errorf("wal: snapshot truncated (%d bytes)", len(data))
	}
	crc := binary.LittleEndian.Uint32(data)
	body := data[4:]
	if crc32.Checksum(body, crcTable) != crc {
		return s, fmt.Errorf("wal: snapshot checksum mismatch")
	}
	s.AppliedSeq = binary.LittleEndian.Uint64(body)
	s.Site = model.SiteID(binary.LittleEndian.Uint32(body[8:]))
	copies := int(binary.LittleEndian.Uint32(body[12:]))
	body = body[16:]
	// Size by what the body can hold (a copy takes at least one version), not
	// by the header alone: a damaged count must not allocate gigabytes.
	s.Chains = make([]storage.CopyChain, 0, min(copies, len(body)/(8+snapVersionBytes)))
	for i := 0; i < copies; i++ {
		if len(body) < 8 {
			return s, fmt.Errorf("wal: snapshot truncated at copy %d", i)
		}
		item := model.ItemID(binary.LittleEndian.Uint32(body))
		nv := int(binary.LittleEndian.Uint32(body[4:]))
		body = body[8:]
		if nv < 1 || len(body) < nv*snapVersionBytes {
			return s, fmt.Errorf("wal: snapshot chain for item %d malformed (%d versions, %d bytes left)", item, nv, len(body))
		}
		cc := storage.CopyChain{
			ID:       model.CopyID{Item: item, Site: s.Site},
			Versions: make([]storage.Version, nv),
		}
		for j := 0; j < nv; j++ {
			b := body[j*snapVersionBytes:]
			cc.Versions[j] = storage.Version{
				Value:   int64(binary.LittleEndian.Uint64(b)),
				Version: binary.LittleEndian.Uint64(b[8:]),
				Writer: model.TxnID{
					Site: model.SiteID(binary.LittleEndian.Uint32(b[16:])),
					Seq:  binary.LittleEndian.Uint64(b[20:]),
				},
				CommitMicros: int64(binary.LittleEndian.Uint64(b[28:])),
			}
		}
		body = body[nv*snapVersionBytes:]
		s.Chains = append(s.Chains, cc)
	}
	if len(body) != 0 {
		return s, fmt.Errorf("wal: snapshot has %d trailing bytes", len(body))
	}
	return s, nil
}

// writeSnapshot persists an encoded snapshot image durably (create, write,
// sync, close) under name, its snapName.
func writeSnapshot(media Media, name string, image []byte) error {
	w, err := media.Create(name)
	if err != nil {
		return fmt.Errorf("wal: create snapshot: %w", err)
	}
	if _, err := w.Write(image); err != nil {
		w.Close()
		return fmt.Errorf("wal: write snapshot: %w", err)
	}
	if err := w.Sync(); err != nil {
		w.Close()
		return fmt.Errorf("wal: sync snapshot: %w", err)
	}
	return w.Close()
}

// newestSnapshot loads the newest decodable snapshot, skipping damaged ones.
// ok is false when no valid snapshot exists.
func newestSnapshot(media Media) (snapshot, bool, error) {
	names, err := media.List()
	if err != nil {
		return snapshot{}, false, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		if !isSnap(names[i]) {
			continue
		}
		data, err := media.ReadAll(names[i])
		if err != nil {
			return snapshot{}, false, err
		}
		s, err := decodeSnapshot(data)
		if err != nil {
			continue // torn snapshot: fall back to an older one
		}
		s.gen = snapGen(names[i])
		return s, true, nil
	}
	return snapshot{}, false, nil
}

// pruneBefore removes every snapshot and sealed segment on media made
// obsolete by the snapshot keepSnap: other snapshots and segments whose name
// (first seq) precedes the current open segment — the snapshot covers all of
// them because it was taken after a roll. Recovery runs it, and it lists the
// media to sweep whatever an earlier life left there; a running site prunes
// by name (SiteLog.pruneCovered).
func pruneBefore(media Media, keepSnap, keepSegment string) error {
	names, err := media.List()
	if err != nil {
		return err
	}
	for _, n := range names {
		switch {
		case isSnap(n) && n != keepSnap:
			if err := media.Remove(n); err != nil {
				return err
			}
		case isSeg(n) && n < keepSegment:
			if err := media.Remove(n); err != nil {
				return err
			}
		}
	}
	return nil
}
