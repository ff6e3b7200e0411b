// Package agnn is a from-scratch Go reproduction of "High-Performance and
// Programmable Attentional Graph Neural Networks with Global Tensor
// Formulations" (Besta et al., SC '23): global tensor formulations of
// attentional GNNs (VA, AGNN, GAT) for inference and training. Every layer
// is one execution DAG over sparse-dense tensor kernels (SpMM, SDDMM, MM and
// their SpMMM / MSpMM compositions), semiring aggregation and virtual score
// matrices, compiled with the paper's fusion rule into a plan that runs on a
// single node, at either float width, and on a communication-minimizing
// 2D-grid distributed execution with a BSP cost model — all validated
// against an independent local (message-passing) implementation and
// finite-difference gradient checks.
//
// See README.md for the architecture overview, docs/ARCHITECTURE.md for
// the compile → fuse → execute operator-plan pipeline, DESIGN.md for the
// system inventory and experiment index, and EXPERIMENTS.md for
// paper-vs-measured results. The library lives under internal/; the
// runnable surfaces are cmd/ and examples/.
package agnn
