// Package rtmlab is a pure-Go reproduction of "Performance and Energy
// Analysis of the Restricted Transactional Memory Implementation on
// Haswell" (Goel, Titos-Gil, Negi, McKee, Stenström; Chalmers University
// of Technology): a deterministic simulation of the paper's entire
// testbed — a Haswell-geometry cache hierarchy with a TSX/RTM model, a
// TinySTM reimplementation, a RAPL-like energy model, Eigenbench and the
// STAMP suite — plus a harness that regenerates every figure and table of
// the paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for measured-versus-paper results. The implementation
// lives under internal/ and the runnable entry points under cmd/.
package rtmlab
