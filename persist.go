package treesvd

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/ppr"
	"github.com/tree-svd/treesvd/internal/sparse"
	"github.com/tree-svd/treesvd/internal/wal"
	"github.com/tree-svd/treesvd/internal/wire"
)

// persistVersion guards the save format; bump on incompatible changes.
// Load, LoadFile and Open accept this version only — there is no upgrade
// reader. Every save ends in wire's integrity footer (wire.Footer: the
// 4-byte magic "TSV2" followed by a little-endian CRC32C of the entire
// gob payload), so bit rot that still decodes as structurally plausible
// gob is rejected deterministically.
const persistVersion = 8

// savedEmbedder is the gob wire form of an Embedder: configuration,
// subset, the dynamic graph, the subset's forward/reverse PPR states, the
// proximity matrix with its lazy-update bookkeeping, and the tree's
// cached factorizations. Loading restores the exact maintenance state —
// subsequent ApplyEvents behave as if the process had never restarted. A
// durable checkpoint carries the same bytes. Config.Workers is stored as
// 0: a save holds the state, not the machine that computed it, and the
// worker count changes no bit of it.
type savedEmbedder struct {
	Version int
	Config  Config
	Subset  []int32
	Graph   *graph.Graph
	Fwd     []*ppr.State
	Rev     []*ppr.State
	M       *sparse.DynRow
	Tree    *core.TreeSnapshot
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
	data, err := e.saveBytes()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// saveBytes is Save into memory: the gob payload and its footer, the
// bytes of a SaveFile and the payload of a durable checkpoint.
func (e *Embedder) saveBytes() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cfg := e.cfg
	cfg.Workers = 0
	saved := savedEmbedder{
		Version: persistVersion,
		Config:  cfg,
		Subset:  e.subset,
		Graph:   e.g,
		Fwd:     e.prox.Sub.Fwd,
		Rev:     e.prox.Sub.Rev,
		M:       e.prox.M,
		Tree:    e.tree.Snapshot(),
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&saved); err != nil {
		return nil, fmt.Errorf("treesvd: encode: %w", err)
	}
	return append(buf.Bytes(), wire.Footer(buf.Bytes())...), nil
}

// Load restores an Embedder previously written by Save at the current
// format version; any other version is refused with an error naming both.
// Integrity, structural-consistency and invariant-audit failures are
// reported as a *CorruptStateError. A save holds no worker count: the
// restored embedder runs on workers (Config.Workers; at most one value),
// sequentially when none is given.
func Load(r io.Reader, workers ...int) (*Embedder, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("treesvd: read save: %w", err)
	}
	return load(data, "", workers)
}

// load is the shared body of Load and LoadFile.
func load(data []byte, path string, workers []int) (*Embedder, error) {
	n := 0
	switch len(workers) {
	case 0:
	case 1:
		n = workers[0]
	default:
		return nil, fmt.Errorf("treesvd: load: %d worker counts given, want at most one", len(workers))
	}
	e, err := decodeEmbedder(data, path, n)
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
	data, err := e.saveBytes()
	if err != nil {
		return err
	}
	return wal.WriteFileAtomic(wal.OS, path, data)
}

// LoadFile restores an Embedder from a file written by SaveFile (or any
// complete Save stream). Corruption is reported as a *CorruptStateError
// carrying the path. workers is as for Load.
func LoadFile(path string, workers ...int) (*Embedder, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return load(data, path, workers)
}

// corruptErr builds the uniform corruption error for decode failures.
func corruptErr(path, format string, args ...any) error {
	return &CorruptStateError{Path: path, Offset: -1, Reason: fmt.Sprintf(format, args...)}
}

// decodeEmbedder verifies the footer, decodes the gob payload, checks
// the version and structurally validates the result, returning a fully
// wired but unpublished embedder (see finishRestore) that runs on the
// caller's worker count. The checksum only guarantees the bytes, not that
// the pieces agree with each other, so the cross-field invariants New
// establishes are re-checked before anything is assembled: a hand-edited
// save errors here instead of panicking on first use. RestoreSubset and
// RestoreTree re-check their own pieces (state shapes, tree cache dims).
func decodeEmbedder(data []byte, path string, workers int) (*Embedder, error) {
	payload, err := wire.SplitFooter(data)
	if err != nil {
		return nil, &CorruptStateError{Path: path, Offset: -1, Reason: "save failed its integrity footer", Err: err}
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
	cfg.Workers = workers
	switch {
	case saved.M == nil:
		return nil, corruptErr(path, "missing proximity matrix")
	case saved.Tree == nil:
		return nil, corruptErr(path, "missing tree snapshot")
	case saved.M.Rows() != len(saved.Subset):
		return nil, corruptErr(path, "proximity matrix has %d rows for %d subset nodes",
			saved.M.Rows(), len(saved.Subset))
	case saved.M.Cols() < saved.Graph.NumNodes():
		return nil, corruptErr(path, "proximity matrix %d columns narrower than the %d-node graph",
			saved.M.Cols(), saved.Graph.NumNodes())
	}
	params, tcfg, err := cfg.pipeline()
	if err != nil {
		return nil, &CorruptStateError{Path: path, Offset: -1, Reason: "invalid saved configuration", Err: err}
	}
	sub, err := ppr.RestoreSubset(saved.Graph, saved.Subset, params, saved.Fwd, saved.Rev)
	if err != nil {
		return nil, &CorruptStateError{Path: path, Offset: -1, Reason: "inconsistent PPR state", Err: err}
	}
	tree, err := core.RestoreTree(saved.M, tcfg, saved.Tree)
	if err != nil {
		return nil, &CorruptStateError{Path: path, Offset: -1, Reason: "inconsistent tree snapshot", Err: err}
	}
	if !tree.Built() {
		// Defensive: a snapshot saved before any Build (not reachable via
		// New+Save, but cheap to repair here).
		if err := tree.Build(context.Background()); err != nil {
			return nil, err
		}
	}
	return newEmbedder(cfg, saved.Subset, saved.Graph, ppr.RestoreProximity(sub, saved.M), tree), nil
}
