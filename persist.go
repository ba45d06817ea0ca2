package treesvd

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"

	"github.com/tree-svd/treesvd/internal/column"
	"github.com/tree-svd/treesvd/internal/core"
	"github.com/tree-svd/treesvd/internal/graph"
	"github.com/tree-svd/treesvd/internal/par"
	"github.com/tree-svd/treesvd/internal/ppr"
	"github.com/tree-svd/treesvd/internal/sparse"
	"github.com/tree-svd/treesvd/internal/wal"
	"github.com/tree-svd/treesvd/internal/wire"
)

// persistVersion guards the save format; bump on incompatible changes.
// Load, LoadFile and Open accept this version only — there is no upgrade
// reader. Every save ends in wire's integrity footer (wire.Footer: the
// 4-byte magic "TSV2" followed by a little-endian CRC32C of the entire
// payload), so bit rot that still decodes as a structurally plausible
// save is rejected deterministically.
const persistVersion = 9

// saveHeader opens a save's payload as a gob stream: the format version,
// the configuration (Config.Workers stored as 0: a save holds the state,
// not the machine that computed it, and the worker count changes no bit
// of it) and the subset. Gob matches fields by name, so a retired Config
// field in an older header is dropped, and the header of any earlier
// format, whose gob stream opened with the same three fields, reads far
// enough to be refused by its version.
type saveHeader struct {
	Version int
	Config  Config
	Subset  []int32
}

// savedEmbedder is an Embedder's saved state: the header, then the bulk
// parts — the dynamic graph, the subset's forward and reverse PPR states,
// the proximity matrix with its lazy-update bookkeeping, and the tree's
// cached factorizations. Each part has its own codec of little-endian
// columns in its own package (internal/column); after the header the
// payload is
//
//	count of Fwd | count of Rev | graph | Fwd states | Rev states | M | tree
//
// each part a section behind its 8-byte length. Loading restores the
// exact maintenance state — subsequent ApplyEvents behave as if the
// process had never restarted. A durable checkpoint carries the same
// bytes.
type savedEmbedder struct {
	saveHeader
	Graph *graph.Graph
	Fwd   []*ppr.State
	Rev   []*ppr.State
	M     *sparse.DynRow
	Tree  *core.TreeSnapshot
}

// savedPart is one bulk part's codec.
type savedPart interface {
	EncodedLen() int
	AppendEncoded([]byte) []byte
}

// parts lists the bulk parts in payload order.
func (s *savedEmbedder) parts() []savedPart {
	parts := make([]savedPart, 0, 3+len(s.Fwd)+len(s.Rev))
	parts = append(parts, s.Graph)
	for _, st := range slices.Concat(s.Fwd, s.Rev) {
		parts = append(parts, st)
	}
	return append(parts, s.M, s.Tree)
}

// encode writes the save once into one buffer sized up front from the
// parts' lengths: the header, the sections, the integrity footer. Each
// part's place follows from the lengths before it, so workers encode the
// parts in parallel, each straight into its place, and the bytes do not
// depend on their number.
func (s *savedEmbedder) encode(workers int) ([]byte, error) {
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(&s.saveHeader); err != nil {
		return nil, fmt.Errorf("treesvd: encode: %w", err)
	}
	parts := s.parts()
	lens := make([]int, len(parts))
	if err := par.ForErr(nil, len(parts), workers, func(i int) error {
		lens[i] = parts[i].EncodedLen()
		return nil
	}); err != nil {
		return nil, err
	}
	size := hdr.Len() + 2*column.CountLen + wire.FooterLen
	for _, n := range lens {
		size += column.SectionLen(n)
	}
	b := make([]byte, size)
	at := copy(b, hdr.Bytes())
	at = column.PutCount(b, at, len(s.Fwd))
	at = column.PutCount(b, at, len(s.Rev))
	starts := make([]int, len(parts))
	for i, n := range lens {
		starts[i] = column.PutCount(b, at, n)
		at = starts[i] + n
	}
	err := par.ForErr(nil, len(parts), workers, func(i int) error {
		lo, hi := starts[i], starts[i]+lens[i]
		if n := len(parts[i].AppendEncoded(b[lo:lo:hi])); n != lens[i] {
			return fmt.Errorf("treesvd: encode: a %T part wrote %d bytes, its EncodedLen %d", parts[i], n, lens[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	copy(b[at:], wire.Footer(b[:at]))
	return b, nil
}

// Save serializes the embedder's complete state to w: the payload
// savedEmbedder describes, followed by the integrity footer. It takes the
// update lock, so it is safe to call concurrently with ApplyEvents/Rebuild
// and always writes a fully committed state.
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

// saveBytes is Save into memory: the payload and its footer, the bytes
// of a SaveFile and the payload of a durable checkpoint.
func (e *Embedder) saveBytes() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.saveBytesLocked()
}

// saveBytesLocked is saveBytes under the caller's e.mu.
func (e *Embedder) saveBytesLocked() ([]byte, error) {
	cfg := e.cfg
	cfg.Workers = 0
	saved := savedEmbedder{
		saveHeader: saveHeader{Version: persistVersion, Config: cfg, Subset: e.subset},
		Graph:      e.g,
		Fwd:        e.prox.Sub.Fwd,
		Rev:        e.prox.Sub.Rev,
		M:          e.prox.M,
		Tree:       e.tree.Snapshot(),
	}
	return saved.encode(e.cfg.Workers)
}

// Load restores an Embedder previously written by Save at the current
// format version; any other version is refused with an error naming both.
// Integrity, structural-consistency and invariant-audit failures are
// reported as a *CorruptStateError. A save holds no worker count: the
// restored embedder runs on workers (Config.Workers; at most one value),
// sequentially when none is given.
func Load(r io.Reader, workers ...int) (*Embedder, error) {
	data, err := readAll(r)
	if err != nil {
		return nil, fmt.Errorf("treesvd: read save: %w", err)
	}
	return load(data, "", workers)
}

// readAll reads r to its end. A reader that reports its size (Len, as a
// *bytes.Reader does, or Stat on a regular file) is read into one buffer
// of that size; any other goes through io.ReadAll, which grows its buffer
// by doubling.
func readAll(r io.Reader) ([]byte, error) {
	size := int64(-1)
	switch r := r.(type) {
	case interface{ Len() int }:
		size = int64(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			size = fi.Size()
		}
	}
	if size < 0 {
		return io.ReadAll(r)
	}
	// MinRead spare bytes let the read that reports EOF land without a grow.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
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

// saveSections is a payload split at its sections, before any part is
// decoded: a missing part is an empty section.
type saveSections struct {
	saveHeader
	Graph    []byte
	Fwd, Rev [][]byte
	M, Tree  []byte
}

// splitSave reads the header and splits the rest of the payload into its
// sections. Another format version is refused here, with a plain error
// naming both, before any section is read.
func splitSave(payload []byte, path string) (*saveSections, error) {
	rd := bytes.NewReader(payload)
	var s saveSections
	// A bytes.Reader is an io.ByteReader, so gob reads exactly the header
	// and leaves rd at the first section.
	if err := gob.NewDecoder(rd).Decode(&s.saveHeader); err != nil {
		return nil, &CorruptStateError{Path: path, Offset: -1, Reason: "save header failed to decode", Err: err}
	}
	if s.Version != persistVersion {
		return nil, fmt.Errorf("treesvd: save format version %d, want %d", s.Version, persistVersion)
	}
	r := column.NewReader(payload[len(payload)-rd.Len():])
	nFwd, nRev := r.Count(column.CountLen), r.Count(column.CountLen)
	s.Graph = r.Section()
	for _, dir := range []struct {
		states *[][]byte
		n      int
	}{{&s.Fwd, nFwd}, {&s.Rev, nRev}} {
		for range dir.n {
			*dir.states = append(*dir.states, r.Section())
		}
	}
	s.M, s.Tree = r.Section(), r.Section()
	if err := r.Done(); err != nil {
		return nil, &CorruptStateError{Path: path, Offset: -1, Reason: "save sections do not span the payload", Err: err}
	}
	return &s, nil
}

// decodeSaved decodes each part of a split save with its own codec; each
// refuses bytes that are not a well-formed part.
func decodeSaved(sec *saveSections, path string) (*savedEmbedder, error) {
	switch {
	case len(sec.Graph) == 0:
		return nil, corruptErr(path, "missing graph")
	case len(sec.M) == 0:
		return nil, corruptErr(path, "missing proximity matrix")
	case len(sec.Tree) == 0:
		return nil, corruptErr(path, "missing tree snapshot")
	}
	saved := &savedEmbedder{saveHeader: sec.saveHeader}
	var err error
	if saved.Graph, err = graph.Decode(sec.Graph); err != nil {
		return nil, partErr(path, "graph", err)
	}
	if saved.Fwd, err = decodeStates(sec.Fwd); err != nil {
		return nil, partErr(path, "PPR state", err)
	}
	if saved.Rev, err = decodeStates(sec.Rev); err != nil {
		return nil, partErr(path, "PPR state", err)
	}
	if saved.M, err = sparse.DecodeDynRow(sec.M); err != nil {
		return nil, partErr(path, "proximity matrix", err)
	}
	if saved.Tree, err = core.DecodeTreeSnapshot(sec.Tree); err != nil {
		return nil, partErr(path, "tree snapshot", err)
	}
	return saved, nil
}

// decodeStates decodes one direction's states; none decodes as nil.
func decodeStates(raw [][]byte) ([]*ppr.State, error) {
	var out []*ppr.State
	for _, b := range raw {
		st, err := ppr.DecodeState(b)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// partErr reports a part its codec refused.
func partErr(path, part string, err error) error {
	return &CorruptStateError{Path: path, Offset: -1, Reason: part + " failed to decode", Err: err}
}

// decodeEmbedder verifies the footer, splits and decodes the payload and
// structurally validates the result, returning a fully wired but
// unpublished embedder (see finishRestore) that runs on the caller's
// worker count. The checksum only guarantees the bytes, not that the
// pieces agree with each other, so the cross-field invariants New
// establishes are re-checked before anything is assembled: a hand-edited
// save errors here instead of panicking on first use. RestoreSubset and
// RestoreTree re-check their own pieces (state shapes, tree cache dims).
func decodeEmbedder(data []byte, path string, workers int) (*Embedder, error) {
	payload, err := wire.SplitFooter(data)
	if err != nil {
		return nil, &CorruptStateError{Path: path, Offset: -1, Reason: "save failed its integrity footer", Err: err}
	}
	sec, err := splitSave(payload, path)
	if err != nil {
		return nil, err
	}
	if len(sec.Subset) == 0 {
		return nil, corruptErr(path, "empty subset")
	}
	saved, err := decodeSaved(sec, path)
	if err != nil {
		return nil, err
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
