module github.com/tree-svd/treesvd/benchmark

go 1.22

require github.com/tree-svd/treesvd v0.0.0

replace github.com/tree-svd/treesvd => ../
