// Optimization toggles for the hand-optimized native kernels (Section 6.1).
//
// Each flag corresponds to one bar group of Figure 7 / one technique of §6.1.1:
// software prefetching, message compression, computation-communication overlap, and
// data-structure selection (bitvectors). The Figure 7 bench flips these one at a
// time to reproduce the ablation.
#ifndef MAZE_NATIVE_OPTIONS_H_
#define MAZE_NATIVE_OPTIONS_H_

namespace maze::native {

struct NativeOptions {
  // Issue __builtin_prefetch for irregular gathers (contrib[] in PageRank,
  // visited bits in BFS). The paper's single biggest single-node win.
  bool software_prefetch = true;

  // Delta/varint (or dense-range bitvector) encode vertex-id message payloads;
  // reduces modeled wire bytes at real encoding CPU cost.
  bool compress_messages = true;

  // Overlap computation with communication: step time becomes
  // max(compute, comm) instead of compute + comm, and large messages are
  // processed in blocks, shrinking buffer memory.
  bool overlap_comm = true;

  // Data-structure optimization: bitvector visited set in BFS (enables the
  // bottom-up direction switch) and bitvector neighbor lookups for hub vertices
  // in triangle counting.
  bool use_bitvector = true;

  // Ablation-only (not one of Figure 7's bars): partition 1-D by equal vertex
  // counts instead of the default equal edge counts, reproducing §6.1.1's load-
  // imbalance discussion ("2D partitioning ... or advanced 1D ... gives better
  // load balancing") on skewed graphs.
  bool vertex_balanced_partition = false;

  static NativeOptions AllOn() { return NativeOptions{}; }
  static NativeOptions AllOff() {
    return {false, false, false, false, false};
  }
};

}  // namespace maze::native

#endif  // MAZE_NATIVE_OPTIONS_H_
