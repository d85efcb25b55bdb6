package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Media is the byte store under a write-ahead log: a flat namespace of
// append-written objects (log segments and snapshots). Names returned by
// List are sorted lexicographically, which the log's naming scheme makes
// chronological.
type Media interface {
	// List returns every stored object name in lexicographic order.
	List() ([]string, error)
	// ReadAll returns an object's full contents.
	ReadAll(name string) ([]byte, error)
	// Create starts a new object. Writes reach durable storage only after
	// Sync; a crash may lose anything unsynced (or tear a partial write).
	Create(name string) (Writer, error)
	// Remove deletes an object (log truncation after a snapshot).
	Remove(name string) error
}

// Writer is an append-only handle to one media object.
type Writer interface {
	io.Writer
	// Sync makes everything written so far durable.
	Sync() error
	// Close releases the handle. Close does not imply Sync.
	Close() error
}

// Crasher is implemented by media that can simulate a power cut: everything
// not yet synced is discarded. DirMedia does not implement it — for files
// the crash is the real process dying.
type Crasher interface {
	Crash()
}

// ---------------------------------------------------------------------------
// DirMedia: one directory of real files
// ---------------------------------------------------------------------------

// DirMedia stores objects as files in one directory.
type DirMedia struct {
	dir string
}

// NewDirMedia creates (if needed) and opens a directory medium.
func NewDirMedia(dir string) (*DirMedia, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: media dir: %w", err)
	}
	return &DirMedia{dir: dir}, nil
}

// Dir returns the backing directory.
func (m *DirMedia) Dir() string { return m.dir }

// List implements Media.
func (m *DirMedia) List() ([]string, error) {
	ents, err := os.ReadDir(m.dir)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// ReadAll implements Media.
func (m *DirMedia) ReadAll(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(m.dir, name))
}

// Create implements Media. The directory is fsynced so the new entry is
// durable before any content is: a power cut must never persist the later
// removal of a superseded snapshot while losing its replacement's entry.
func (m *DirMedia) Create(name string) (Writer, error) {
	f, err := os.OpenFile(filepath.Join(m.dir, name), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err := m.syncDir(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Remove implements Media. The unlink is made durable with a directory
// fsync — callers remove objects only once their replacement is durable.
func (m *DirMedia) Remove(name string) error {
	if err := os.Remove(filepath.Join(m.dir, name)); err != nil {
		return err
	}
	return m.syncDir()
}

func (m *DirMedia) syncDir() error {
	d, err := os.Open(m.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ---------------------------------------------------------------------------
// MemMedia: deterministic in-memory medium for the simulator
// ---------------------------------------------------------------------------

// MemMedia keeps objects in memory and distinguishes synced from unsynced
// bytes, so a simulated crash (Crash) loses exactly what a power cut would:
// every write since the last Sync.
//
// Each object is one array: the synced bytes, then the unsynced ones. A
// Sync only moves the boundary, so no byte is copied twice, and an object
// Remove drops keeps its array (and itself) for the next Create, so a log
// that rolls and snapshots at a steady size allocates nothing for its media.
// The Writer Create returns is the object itself, so it must not be used
// after the object is removed: its memory belongs to a later Create. The
// site log never does — it removes only sealed segments and closed
// snapshots, under the lock its flushes hold.
type MemMedia struct {
	mu   sync.Mutex
	objs map[string]*memObj
	// free holds up to maxFreeObjs removed objects for Create to reuse.
	free []*memObj
	// SyncCount counts Sync calls across all objects (test/benchmark
	// visibility into how well group commit batches).
	SyncCount uint64
	// SyncDelay, when positive, makes every Sync take this long — the
	// stand-in for fsync latency that group commit amortizes. Set it before
	// handing the media to writers.
	SyncDelay time.Duration
}

// maxFreeObjs bounds MemMedia's free objects: a site log removes a few
// objects per snapshot and creates as many.
const maxFreeObjs = 4

// memObj is one object and its Writer: data[:synced] has been synced,
// data[synced:] is written but not yet synced.
type memObj struct {
	media  *MemMedia
	data   []byte
	synced int
}

// NewMemMedia builds an empty in-memory medium.
func NewMemMedia() *MemMedia {
	return &MemMedia{objs: map[string]*memObj{}}
}

// List implements Media.
func (m *MemMedia) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.objs))
	for n := range m.objs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// ReadAll implements Media. It returns synced plus still-pending bytes: an
// in-process reader sees its own unsynced writes (like the OS page cache);
// only a Crash discards them.
func (m *MemMedia) ReadAll(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o := m.objs[name]
	if o == nil {
		return nil, fmt.Errorf("wal: mem object %q does not exist", name)
	}
	out := make([]byte, len(o.data))
	copy(out, o.data)
	return out, nil
}

// Create implements Media. Creating a name that exists replaces its object.
func (m *MemMedia) Create(name string) (Writer, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var o *memObj
	if n := len(m.free); n > 0 {
		o, m.free = m.free[n-1], m.free[:n-1]
	} else {
		o = &memObj{media: m}
	}
	m.objs[name] = o
	return o, nil
}

// Remove implements Media.
func (m *MemMedia) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	o := m.objs[name]
	if o == nil {
		return nil
	}
	delete(m.objs, name)
	if len(m.free) < maxFreeObjs {
		o.data, o.synced = o.data[:0], 0
		m.free = append(m.free, o)
	}
	return nil
}

// Crash implements Crasher: every unsynced byte is lost, synced bytes
// survive.
func (m *MemMedia) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, o := range m.objs {
		o.data = o.data[:o.synced]
	}
}

// Syncs returns the cumulative Sync count.
func (m *MemMedia) Syncs() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.SyncCount
}

func (o *memObj) Write(p []byte) (int, error) {
	o.media.mu.Lock()
	defer o.media.mu.Unlock()
	o.data = append(o.data, p...)
	return len(p), nil
}

func (o *memObj) Sync() error {
	if d := o.media.SyncDelay; d > 0 {
		time.Sleep(d)
	}
	o.media.mu.Lock()
	defer o.media.mu.Unlock()
	o.synced = len(o.data)
	o.media.SyncCount++
	return nil
}

func (o *memObj) Close() error { return nil }
