// Package registry is a crash-safe on-disk store of versioned surrogate
// artifacts — the durability layer of the serving stack. Each name holds
// a monotonically numbered sequence of generations; Publish is atomic
// and torn-write-proof (write temp → fsync file → rename → fsync dir,
// with a generation-ordered MANIFEST updated last as the commit point),
// and Latest opens the newest durable generation zero-copy via mmap
// after verifying every per-section checksum. A corrupt or truncated
// artifact is quarantined — never served, never fatal — and the open
// falls back to the previous good generation, repointing the manifest.
//
// All mutating I/O flows through a chaos.FS, so the crash-consistency
// tests drive the exact publish protocol through a fault injector that
// kills it at every individual filesystem operation.
package registry

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/chaos"
	"repro/internal/nn"
)

// ErrNotFound reports a name with no servable generation.
var ErrNotFound = errors.New("registry: no servable generation")

// ErrNoPredecessor reports a rollback with nothing to roll back to.
var ErrNoPredecessor = errors.New("registry: no predecessor generation")

const (
	manifestMagic   = 0x4d52484c // "LHRM" little-endian
	manifestVersion = 1
	manifestName    = "MANIFEST"
	quarantineDir   = "quarantine"
	// DefaultKeep is how many generations GC retains per name: at least 2,
	// so a rollback always has a predecessor on disk.
	DefaultKeep = 4
)

var manifestCRC = crc64.MakeTable(crc64.ECMA)

// Config configures a Registry.
type Config struct {
	// Dir is the registry root; one subdirectory per published name.
	Dir string
	// FS overrides the filesystem (fault injection); nil uses the real
	// one. With the real filesystem artifacts open zero-copy via mmap;
	// a custom FS routes artifact reads through FS.ReadFile instead so
	// injected read faults are observable.
	FS chaos.FS
}

// Stats is a snapshot of registry activity counters.
type Stats struct {
	// Publishes counts committed generations.
	Publishes int64
	// Rollbacks counts explicit generation rollbacks.
	Rollbacks int64
	// Quarantines counts corrupt artifacts detected and set aside.
	Quarantines int64
	// Opens counts artifacts served by Latest.
	Opens int64
}

// Handle is an opened artifact generation. Data is a read-only view —
// on unix a live mmap owned by the Registry, valid until Registry.Close.
type Handle struct {
	// Gen is the generation number, monotonically increasing per name.
	Gen uint64
	// Data is the verified artifact bytes.
	Data []byte
}

// nameState is the cached manifest view of one name.
type nameState struct {
	cur  uint64 // newest committed generation, 0 = none
	next uint64 // next generation number to assign (monotonic, survives rollback)
}

// Registry is a crash-safe store of versioned artifacts. All methods
// are safe for concurrent use.
type Registry struct {
	dir    string
	fs     chaos.FS
	useMap bool

	mu       sync.Mutex
	state    map[string]*nameState
	counters map[string]*Stats
	unmaps   []func()
	closed   bool
	// latests caches the most recent Handle served per name so the
	// wire-serve path (FetchArtifact polled every mirror tick) does not
	// accumulate one mapping per poll; a cached handle is reused until a
	// newer generation commits.
	latests map[string]*Handle

	global Stats
}

// Open opens (creating if needed) a registry rooted at cfg.Dir.
func Open(cfg Config) (*Registry, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("registry: Dir is required")
	}
	r := &Registry{
		dir:      cfg.Dir,
		fs:       cfg.FS,
		useMap:   cfg.FS == nil,
		state:    map[string]*nameState{},
		counters: map[string]*Stats{},
		latests:  map[string]*Handle{},
	}
	if r.fs == nil {
		r.fs = chaos.OSFS{}
	}
	if err := r.fs.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return r, nil
}

// Close releases every mapping handed out through Latest. Data slices
// from previously returned Handles (and programs decoded zero-copy from
// them) must not be used afterwards.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	for _, un := range r.unmaps {
		un()
	}
	r.unmaps = nil
	return nil
}

// Stats snapshots the global activity counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.global
}

// NameStats snapshots one name's activity counters.
func (r *Registry) NameStats(name string) Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return *c
	}
	return Stats{}
}

func (r *Registry) countersFor(name string) *Stats {
	c := r.counters[name]
	if c == nil {
		c = &Stats{}
		r.counters[name] = c
	}
	return c
}

// nameDir maps a logical name to its directory; names are path-escaped
// so any string (tenant/shard keys included) is a valid name.
func (r *Registry) nameDir(name string) string {
	return filepath.Join(r.dir, url.PathEscape(name))
}

func genFile(gen uint64) string { return fmt.Sprintf("gen-%012d.art", gen) }

// parseGen inverts genFile; ok is false for foreign filenames.
func parseGen(name string) (uint64, bool) {
	var gen uint64
	if _, err := fmt.Sscanf(name, "gen-%d.art", &gen); err != nil || gen == 0 {
		return 0, false
	}
	if name != genFile(gen) {
		return 0, false
	}
	return gen, true
}

// ---------------------------------------------------------------------------
// manifest

// encodeManifest lays out the 32-byte manifest: magic, version, current
// generation, next generation, CRC64 of the first 24 bytes.
func encodeManifest(cur, next uint64) []byte {
	buf := make([]byte, 32)
	binary.LittleEndian.PutUint32(buf[0:], manifestMagic)
	binary.LittleEndian.PutUint32(buf[4:], manifestVersion)
	binary.LittleEndian.PutUint64(buf[8:], cur)
	binary.LittleEndian.PutUint64(buf[16:], next)
	binary.LittleEndian.PutUint64(buf[24:], crc64.Checksum(buf[:24], manifestCRC))
	return buf
}

func parseManifest(data []byte) (cur, next uint64, ok bool) {
	if len(data) != 32 ||
		binary.LittleEndian.Uint32(data[0:]) != manifestMagic ||
		binary.LittleEndian.Uint32(data[4:]) != manifestVersion ||
		binary.LittleEndian.Uint64(data[24:]) != crc64.Checksum(data[:24], manifestCRC) {
		return 0, 0, false
	}
	cur = binary.LittleEndian.Uint64(data[8:])
	next = binary.LittleEndian.Uint64(data[16:])
	if next <= cur {
		return 0, 0, false
	}
	return cur, next, true
}

// writeFileAtomic runs the torn-write-proof publish step: temp file,
// full write, fsync, rename into place, fsync the directory.
func (r *Registry) writeFileAtomic(dir, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := r.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := r.fs.Rename(tmp, path); err != nil {
		return err
	}
	return r.fs.SyncDir(dir)
}

func (r *Registry) writeManifestLocked(ndir string, cur, next uint64) error {
	return r.writeFileAtomic(ndir, filepath.Join(ndir, manifestName), encodeManifest(cur, next))
}

// scanGens lists the generations present in ndir, ascending.
func (r *Registry) scanGens(ndir string) ([]uint64, error) {
	names, err := r.fs.ReadDir(ndir)
	if err != nil {
		return nil, err
	}
	var gens []uint64
	for _, n := range names {
		if g, ok := parseGen(n); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// loadStateLocked returns the cached manifest state for name, reading
// the manifest — or recovering by directory scan when the manifest is
// missing or corrupt — on first touch.
func (r *Registry) loadStateLocked(name string) *nameState {
	if st := r.state[name]; st != nil {
		return st
	}
	ndir := r.nameDir(name)
	st := &nameState{next: 1}
	if data, err := r.fs.ReadFile(filepath.Join(ndir, manifestName)); err == nil {
		if cur, next, ok := parseManifest(data); ok {
			st.cur, st.next = cur, next
			r.state[name] = st
			return st
		}
	}
	// Manifest missing or corrupt: recover from the artifacts themselves.
	// Only fully renamed (hence fully written and fsynced) artifacts are
	// visible here; validity is enforced at serve time, where a corrupt
	// candidate is quarantined and the walk falls back a generation.
	if gens, err := r.scanGens(ndir); err == nil && len(gens) > 0 {
		st.cur = gens[len(gens)-1]
		st.next = st.cur + 1
	}
	r.state[name] = st
	return st
}

// ---------------------------------------------------------------------------
// publish / open / rollback

// Publish commits data as the next generation of name and returns its
// generation number. The artifact is validated first (a corrupt payload
// is refused, not persisted), written with the atomic protocol, and the
// manifest — the commit point — is updated last. On any error the
// on-disk state is at worst the previous generation plus inert temp or
// orphan files that the next successful publish overwrites.
func (r *Registry) Publish(name string, data []byte) (uint64, error) {
	if err := nn.VerifyArtifact(data); err != nil {
		return 0, fmt.Errorf("registry: refusing to publish %s: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, fmt.Errorf("registry: closed")
	}
	ndir := r.nameDir(name)
	if err := r.fs.MkdirAll(ndir, 0o755); err != nil {
		delete(r.state, name)
		return 0, fmt.Errorf("registry: publish %s: %w", name, err)
	}
	st := r.loadStateLocked(name)
	gen := st.next
	if err := r.writeFileAtomic(ndir, filepath.Join(ndir, genFile(gen)), data); err != nil {
		delete(r.state, name)
		return 0, fmt.Errorf("registry: publish %s gen %d: %w", name, gen, err)
	}
	if err := r.writeManifestLocked(ndir, gen, gen+1); err != nil {
		// The artifact is durable but uncommitted: recovery serves the
		// previous generation and the next publish overwrites the orphan.
		delete(r.state, name)
		return 0, fmt.Errorf("registry: publish %s gen %d manifest: %w", name, gen, err)
	}
	st.cur, st.next = gen, gen+1
	r.global.Publishes++
	r.countersFor(name).Publishes++
	r.gcLocked(ndir, gen)
	return gen, nil
}

// gcLocked removes generations older than the retention window.
// Best-effort: a GC failure never fails the publish that triggered it.
func (r *Registry) gcLocked(ndir string, cur uint64) {
	if cur <= DefaultKeep {
		return
	}
	gens, err := r.scanGens(ndir)
	if err != nil {
		return
	}
	cut := cur - DefaultKeep
	for _, g := range gens {
		if g <= cut {
			r.fs.Remove(filepath.Join(ndir, genFile(g)))
		}
	}
}

// readArtifact opens one artifact file: zero-copy mmap on the real
// filesystem, FS.ReadFile behind an injected one.
func (r *Registry) readArtifact(path string) (data []byte, unmap func(), err error) {
	if r.useMap {
		return mmapFile(path)
	}
	data, err = r.fs.ReadFile(path)
	return data, func() {}, err
}

// Latest opens the newest servable generation of name. Every candidate
// is checksum-verified before being served; a corrupt one is moved to
// the quarantine subdirectory (and counted) and the walk falls back to
// the previous generation, repointing the manifest at whatever it
// settles on. ErrNotFound means no generation survived.
func (r *Registry) Latest(name string) (*Handle, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("registry: closed")
	}
	st := r.loadStateLocked(name)
	if st.cur == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	ndir := r.nameDir(name)
	gens, err := r.scanGens(ndir)
	if err != nil {
		delete(r.state, name)
		return nil, fmt.Errorf("registry: open %s: %w", name, err)
	}
	for i := len(gens) - 1; i >= 0; i-- {
		g := gens[i]
		if g > st.cur {
			continue // uncommitted orphan: the manifest never blessed it
		}
		path := filepath.Join(ndir, genFile(g))
		data, unmap, rerr := r.readArtifact(path)
		if rerr == nil {
			if verr := nn.VerifyArtifact(data); verr == nil {
				r.unmaps = append(r.unmaps, unmap)
				r.global.Opens++
				if g != st.cur {
					// Healed past one or more quarantined generations:
					// persist the repoint (best-effort — state self-heals
					// from the scan either way).
					r.writeManifestLocked(ndir, g, st.next)
					st.cur = g
				}
				return &Handle{Gen: g, Data: data}, nil
			}
			unmap()
		}
		r.quarantineLocked(name, ndir, g)
	}
	return nil, fmt.Errorf("%w: %s (all generations quarantined)", ErrNotFound, name)
}

// quarantineLocked sets a corrupt generation aside so it is never
// considered again, and counts the event.
func (r *Registry) quarantineLocked(name, ndir string, gen uint64) {
	r.global.Quarantines++
	r.countersFor(name).Quarantines++
	qdir := filepath.Join(ndir, quarantineDir)
	if err := r.fs.MkdirAll(qdir, 0o755); err == nil {
		r.fs.Rename(filepath.Join(ndir, genFile(gen)), filepath.Join(qdir, genFile(gen)))
	}
}

// Rollback condemns the current generation of name — quarantining it so
// it can never be served again — and repoints the manifest at its
// newest on-disk predecessor, which it returns. Generation numbers stay
// monotonic: the next publish still gets a number above the condemned
// one.
func (r *Registry) Rollback(name string) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, fmt.Errorf("registry: closed")
	}
	st := r.loadStateLocked(name)
	if st.cur == 0 {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	ndir := r.nameDir(name)
	gens, err := r.scanGens(ndir)
	if err != nil {
		delete(r.state, name)
		return 0, fmt.Errorf("registry: rollback %s: %w", name, err)
	}
	pred := uint64(0)
	for _, g := range gens {
		if g < st.cur && g > pred {
			pred = g
		}
	}
	if pred == 0 {
		return 0, fmt.Errorf("%w: %s gen %d", ErrNoPredecessor, name, st.cur)
	}
	r.quarantineLocked(name, ndir, st.cur)
	// Even if the manifest write fails the condemned artifact is gone
	// from the main directory, so recovery lands on pred regardless.
	if err := r.writeManifestLocked(ndir, pred, st.next); err != nil {
		delete(r.state, name)
	} else {
		st.cur = pred
	}
	r.global.Rollbacks++
	r.countersFor(name).Rollbacks++
	return pred, nil
}

// CurrentGeneration reports the committed generation of name (0, false
// when none exists).
func (r *Registry) CurrentGeneration(name string) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.loadStateLocked(name)
	return st.cur, st.cur != 0
}

// ---------------------------------------------------------------------------
// wire serving: generation-addressed fetch and follower replay

// FetchArtifact serves name's artifact bytes at generation gen (0 =
// newest) for over-the-wire transport; together with StatArtifact it
// satisfies netserve's ArtifactStore. The returned bytes are the
// registry's own zero-copy view (on the real filesystem a live mmap,
// valid until Close). ok=false reports no such name/generation — a
// normal condition for a mirror probing shard keys. The newest handle
// is cached per name, so a polling mirror costs one mapping per
// committed generation, not per poll.
func (r *Registry) FetchArtifact(name string, gen uint64) (data []byte, actual uint64, ok bool, err error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, 0, false, fmt.Errorf("registry: closed")
	}
	st := r.loadStateLocked(name)
	if st.cur == 0 || (gen != 0 && gen > st.cur) {
		r.mu.Unlock()
		return nil, 0, false, nil
	}
	if h := r.latests[name]; h != nil && h.Gen == st.cur && (gen == 0 || gen == st.cur) {
		r.mu.Unlock()
		return h.Data, h.Gen, true, nil
	}
	if gen == 0 || gen == st.cur {
		r.mu.Unlock()
		h, lerr := r.Latest(name)
		if lerr != nil {
			if errors.Is(lerr, ErrNotFound) {
				return nil, 0, false, nil
			}
			return nil, 0, false, lerr
		}
		r.mu.Lock()
		if !r.closed {
			r.latests[name] = h
		}
		r.mu.Unlock()
		return h.Data, h.Gen, true, nil
	}
	// A specific older generation: open and verify it directly. No
	// caching — historical reads are rare (a follower catching up).
	defer r.mu.Unlock()
	path := filepath.Join(r.nameDir(name), genFile(gen))
	bytes, unmap, rerr := r.readArtifact(path)
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return nil, 0, false, nil
		}
		return nil, 0, false, fmt.Errorf("registry: fetch %s gen %d: %w", name, gen, rerr)
	}
	if verr := nn.VerifyArtifact(bytes); verr != nil {
		unmap()
		return nil, 0, false, fmt.Errorf("registry: fetch %s gen %d: %w", name, gen, verr)
	}
	r.unmaps = append(r.unmaps, unmap)
	r.global.Opens++
	return bytes, gen, true, nil
}

// StatArtifact reports name's committed generation for the wire control
// plane; it is CurrentGeneration under the ArtifactStore method set.
func (r *Registry) StatArtifact(name string) (uint64, bool) {
	return r.CurrentGeneration(name)
}

// ReplayPublish installs data as generation gen of name — the follower
// half of over-the-wire replication. It runs the same verify → atomic
// write → manifest-commit protocol as Publish but preserves the
// leader's generation number instead of assigning one, and is
// idempotent: a generation at or below the committed one is skipped
// (applied=false, nil error), so a mirror can replay fetched
// generations without tracking what it already has.
func (r *Registry) ReplayPublish(name string, gen uint64, data []byte) (applied bool, err error) {
	if gen == 0 {
		return false, fmt.Errorf("registry: replay %s: generation 0 is not publishable", name)
	}
	if err := nn.VerifyArtifact(data); err != nil {
		return false, fmt.Errorf("registry: refusing to replay %s gen %d: %w", name, gen, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return false, fmt.Errorf("registry: closed")
	}
	ndir := r.nameDir(name)
	if err := r.fs.MkdirAll(ndir, 0o755); err != nil {
		delete(r.state, name)
		return false, fmt.Errorf("registry: replay %s: %w", name, err)
	}
	st := r.loadStateLocked(name)
	if gen <= st.cur {
		return false, nil
	}
	if err := r.writeFileAtomic(ndir, filepath.Join(ndir, genFile(gen)), data); err != nil {
		delete(r.state, name)
		return false, fmt.Errorf("registry: replay %s gen %d: %w", name, gen, err)
	}
	next := st.next
	if gen+1 > next {
		next = gen + 1
	}
	if err := r.writeManifestLocked(ndir, gen, next); err != nil {
		delete(r.state, name)
		return false, fmt.Errorf("registry: replay %s gen %d manifest: %w", name, gen, err)
	}
	st.cur, st.next = gen, next
	r.global.Publishes++
	r.countersFor(name).Publishes++
	r.gcLocked(ndir, gen)
	return true, nil
}
