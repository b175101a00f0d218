// Graph serialization: text edge lists (interoperable with SNAP-style files) and a
// compact binary format for fast reload of generated datasets.
#ifndef MAZE_CORE_IO_H_
#define MAZE_CORE_IO_H_

#include <string>

#include "core/edge_list.h"
#include "util/status.h"

namespace maze {

// Writes "src dst\n" lines. Lines beginning with '#' are comments on read.
Status WriteEdgeListText(const EdgeList& edges, const std::string& path);

// Parses a text edge list. num_vertices is 1 + max id seen unless a
// "# vertices: N" comment declares it.
StatusOr<EdgeList> ReadEdgeListText(const std::string& path);

// Binary format: magic, vertex count, edge count, raw edge array. Reading
// rejects a header whose counts the file cannot hold or ids cannot represent,
// and any edge id at or beyond the vertex count.
Status WriteEdgeListBinary(const EdgeList& edges, const std::string& path);
StatusOr<EdgeList> ReadEdgeListBinary(const std::string& path);

// Matrix Market coordinate format (the interchange format of the sparse-matrix
// world CombBLAS lives in): "%%MatrixMarket matrix coordinate pattern general"
// with 1-based indices. Reading accepts `pattern` (ignores any value column)
// and symmetric layouts (the mirrored edges are materialized).
Status WriteMatrixMarket(const EdgeList& edges, const std::string& path);
StatusOr<EdgeList> ReadMatrixMarket(const std::string& path);

}  // namespace maze

#endif  // MAZE_CORE_IO_H_
