package treesvd

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/ppr"
	"github.com/tree-svd/treesvd/internal/sparse"
)

// persistVersion guards the save format; bump on incompatible changes.
// Load, LoadFile and Open accept this version only — there is no upgrade
// reader. Every save ends in an integrity footer — the 4-byte magic
// "TSV2" followed by a little-endian CRC32C of the entire gob payload —
// so bit rot that still decodes as structurally plausible gob is
// rejected deterministically.
const (
	persistVersion = 4
	persistMagic   = "TSV2"
	footerLen      = 8
)

// persistCRC is the CRC32C (Castagnoli) table shared by the save footer
// and the WAL/checkpoint formats.
var persistCRC = crc32.MakeTable(crc32.Castagnoli)

// savedShard is the gob wire form of one shard: its PPR states, its
// rows of the proximity matrix with the lazy-update bookkeeping, and
// its tree's cached factorizations.
type savedShard struct {
	Fwd  []*ppr.State
	Rev  []*ppr.State
	M    *sparse.DynRow
	Tree *core.TreeSnapshot
}

// savedEmbedder is the gob wire form of an Embedder: configuration,
// subset, the shared dynamic graph, and one savedShard per shard (a
// single element when unsharded). Loading restores the exact
// maintenance state — subsequent ApplyEvents behave as if the process
// had never restarted. A durable checkpoint carries the same bytes.
type savedEmbedder struct {
	Version int
	Config  Config
	Subset  []int32
	Graph   *graph.Graph
	Shards  []savedShard
}

// crcWriter tees writes into a running CRC32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, persistCRC, p[:n])
	return n, err
}

// splitFooted verifies and strips the integrity footer, returning the
// gob payload.
func splitFooted(data []byte, path string) ([]byte, error) {
	if len(data) < footerLen || string(data[len(data)-footerLen:len(data)-4]) != persistMagic {
		return nil, corruptErr(path, "save is missing its integrity footer")
	}
	payload := data[:len(data)-footerLen]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(payload, persistCRC); got != want {
		return nil, corruptErr(path, "save checksum mismatch: computed %08x, footer %08x", got, want)
	}
	return payload, nil
}

// Save serializes the embedder's complete state to w: a gob payload
// followed by the integrity footer. It takes the update lock, so it is
// safe to call concurrently with ApplyEvents/Rebuild and always writes a
// fully committed state.
//
// Save alone is not crash-atomic: a crash mid-write leaves a truncated
// stream that Load will reject but nothing will repair. Use SaveFile for
// an atomically replaced on-disk checkpoint, or Open for continuous
// WAL-backed durability.
func (e *Embedder) Save(w io.Writer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	saved := savedEmbedder{
		Version: persistVersion,
		Config:  e.cfg,
		Subset:  e.subset,
		Graph:   e.g,
		Shards:  make([]savedShard, len(e.shards)),
	}
	for i, s := range e.shards {
		saved.Shards[i] = savedShard{Fwd: s.prox.Sub.Fwd, Rev: s.prox.Sub.Rev, M: s.prox.M, Tree: s.tree.Snapshot()}
	}
	cw := &crcWriter{w: w}
	if err := gob.NewEncoder(cw).Encode(&saved); err != nil {
		return fmt.Errorf("treesvd: encode: %w", err)
	}
	var footer [footerLen]byte
	copy(footer[:4], persistMagic)
	binary.LittleEndian.PutUint32(footer[4:], cw.crc)
	_, err := w.Write(footer[:])
	return err
}

// saveBytes is Save into memory: the payload of a durable checkpoint.
func (e *Embedder) saveBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Load restores an Embedder previously written by Save at the current
// format version; any other version is refused with an error naming both.
// Integrity, structural-consistency and invariant-audit failures are
// reported as a *CorruptStateError.
func Load(r io.Reader) (*Embedder, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("treesvd: read save: %w", err)
	}
	return load(data, "")
}

// load is the shared body of Load and LoadFile.
func load(data []byte, path string) (*Embedder, error) {
	e, err := decodeEmbedder(data, path)
	if err != nil {
		return nil, err
	}
	if err := e.finishRestore(path, nil); err != nil {
		return nil, err
	}
	return e, nil
}

// finishRestore is the tail every restore shares — Load, LoadFile and the
// durable Open: replay (Open's WAL tail; nil otherwise) advances the
// decoded state, the invariant auditors run over the result, and only
// then does the first snapshot become readable. A state that fails the
// audit never serves a query.
func (e *Embedder) finishRestore(path string, replay func() error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if replay != nil {
		if err := replay(); err != nil {
			return err
		}
	}
	if err := e.auditLocked(); err != nil {
		return &CorruptStateError{Path: path, Offset: -1,
			Reason: "restored state failed the invariant audit", Err: err}
	}
	e.publishLocked()
	return nil
}

// SaveFile writes the embedder's state to path crash-atomically: the
// save goes to a temporary file in the same directory, is fsynced, and
// is renamed over path, with a final directory fsync. Readers of path
// therefore always observe either the previous complete save or the new
// one, never a torn mixture — the property Save(w io.Writer) alone
// cannot give.
func (e *Embedder) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := e.Save(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// LoadFile restores an Embedder from a file written by SaveFile (or any
// complete Save stream). Corruption is reported as a *CorruptStateError
// carrying the path.
func LoadFile(path string) (*Embedder, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return load(data, path)
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// corruptErr builds the uniform corruption error for decode failures.
func corruptErr(path, format string, args ...any) error {
	return &CorruptStateError{Path: path, Offset: -1, Reason: fmt.Sprintf(format, args...)}
}

// decodeEmbedder verifies the footer, decodes the gob payload, checks
// the version and structurally validates the result, returning a fully
// wired but unpublished embedder (see finishRestore). The checksum only
// guarantees the bytes, not that the pieces agree with each other, so the
// cross-field invariants New establishes are re-checked before anything
// is assembled: a hand-edited save errors here instead of panicking on
// first use. RestoreSubset and RestoreTree re-check their own pieces
// (state shapes, tree cache dims) per shard.
func decodeEmbedder(data []byte, path string) (*Embedder, error) {
	payload, err := splitFooted(data, path)
	if err != nil {
		return nil, err
	}
	var saved savedEmbedder
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&saved); err != nil {
		return nil, &CorruptStateError{Path: path, Offset: -1, Reason: "gob decode failed", Err: err}
	}
	switch {
	case saved.Version != persistVersion:
		return nil, fmt.Errorf("treesvd: save format version %d, want %d", saved.Version, persistVersion)
	case saved.Graph == nil:
		return nil, corruptErr(path, "missing graph")
	case len(saved.Subset) == 0:
		return nil, corruptErr(path, "empty subset")
	}
	seen := make(map[int32]bool, len(saved.Subset))
	for _, v := range saved.Subset {
		if seen[v] {
			return nil, corruptErr(path, "duplicate subset node %d", v)
		}
		seen[v] = true
	}
	cfg, err := saved.Config.withDefaults()
	if err != nil {
		return nil, &CorruptStateError{Path: path, Offset: -1, Reason: "invalid saved configuration", Err: err}
	}
	if cfg.Shards > len(saved.Subset) {
		return nil, corruptErr(path, "saved configuration asks for %d shards over %d subset nodes",
			cfg.Shards, len(saved.Subset))
	}
	if len(saved.Shards) != cfg.Shards {
		return nil, corruptErr(path, "save carries %d shard payloads for a %d-shard configuration",
			len(saved.Shards), cfg.Shards)
	}
	ranges := core.ShardRanges(len(saved.Subset), cfg.Shards)
	for i, sh := range saved.Shards {
		switch {
		case sh.M == nil:
			return nil, corruptErr(path, "shard %d: missing proximity matrix", i)
		case sh.Tree == nil:
			return nil, corruptErr(path, "shard %d: missing tree snapshot", i)
		case sh.M.Rows() != ranges[i][1]-ranges[i][0]:
			return nil, corruptErr(path, "shard %d: proximity matrix has %d rows for %d subset nodes",
				i, sh.M.Rows(), ranges[i][1]-ranges[i][0])
		case sh.M.Cols() < saved.Graph.NumNodes():
			return nil, corruptErr(path, "shard %d: proximity matrix %d columns narrower than the %d-node graph",
				i, sh.M.Cols(), saved.Graph.NumNodes())
		case sh.M.Cols() != saved.Shards[0].M.Cols() || sh.M.NumBlocks() != saved.Shards[0].M.NumBlocks():
			return nil, corruptErr(path, "shard %d: proximity geometry differs from shard 0", i)
		}
	}
	params, tcfg, err := cfg.pipeline()
	if err != nil {
		return nil, &CorruptStateError{Path: path, Offset: -1, Reason: "invalid saved configuration", Err: err}
	}
	treeMet := &core.Metrics{}
	shards := make([]*shard, len(saved.Shards))
	for i, sh := range saved.Shards {
		lo, hi := ranges[i][0], ranges[i][1]
		sub, err := ppr.RestoreSubset(saved.Graph, saved.Subset[lo:hi], params, sh.Fwd, sh.Rev)
		if err != nil {
			return nil, &CorruptStateError{Path: path, Offset: -1,
				Reason: fmt.Sprintf("shard %d: inconsistent PPR state", i), Err: err}
		}
		tree, err := core.RestoreTree(sh.M, shardTreeConfig(tcfg, i), sh.Tree)
		if err != nil {
			return nil, &CorruptStateError{Path: path, Offset: -1,
				Reason: fmt.Sprintf("shard %d: inconsistent tree snapshot", i), Err: err}
		}
		tree.ShareMetrics(treeMet)
		shards[i] = &shard{id: i, lo: lo, hi: hi, prox: ppr.RestoreProximity(sub, sh.M), tree: tree}
	}
	e := newEmbedder(cfg, saved.Subset, saved.Graph, shards)
	for _, s := range e.shards {
		if !s.tree.Built() {
			// Defensive: a snapshot saved before any Build (not reachable via
			// New+Save, but cheap to repair here).
			if err := s.tree.Build(context.Background()); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}
