// Package check is the correctness harness of the repository: invariant
// auditors for every layer of the dynamic pipeline, plus the fingerprint
// helpers the snapshot-immutability and differential tests build on.
//
// The auditors verify redundancy the pipeline maintains for speed against
// the ground truth it summarizes:
//
//   - PPRState / PPRSubset — the Forward-Push contract: every residue
//     within the r_max threshold, every key a valid node id, and the
//     estimate/residue mass exactly accounted for (Σp + Σr = 1, which
//     both pushes and the Algorithm 2 corrections preserve).
//   - Snapshot / FingerprintRows — order-sensitive content hashes used to
//     prove published snapshots never mutate.
//
// The proximity matrix and the tree audit themselves:
// sparse.DynRow.AuditRecount recounts the incrementally maintained block
// norms, nnz counters and baseline keys, core.Tree.AuditShapes checks the
// cached node shapes against the tree geometry, and core.Tree.Certify
// checks every node against the exact projection of its input. Optimality
// is the exact rank-d yardstick a tree's root is measured against.
//
// Auditors return nil on a healthy structure and a descriptive error
// naming the first violated invariant otherwise. They read (never mutate)
// the structures they audit; callers are responsible for excluding
// concurrent writers, exactly as for any other read of those structures.
//
// The differential/metamorphic fuzzer lives in this package's external
// test suite (package check_test), which may import the public treesvd
// facade without creating an import cycle; treesvd itself imports this
// package for its opt-in Config.SelfCheck hook.
package check
