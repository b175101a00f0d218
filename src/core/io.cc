#include "core/io.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

namespace maze {
namespace {

constexpr uint64_t kBinaryMagic = 0x4D415A4547524146ull;  // "MAZEGRAF"

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

Status WriteEdgeListText(const EdgeList& edges, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) return Status::IoError("cannot open for write: " + path);
  std::fprintf(f.get(), "# vertices: %u\n", edges.num_vertices);
  for (const Edge& e : edges.edges) {
    if (std::fprintf(f.get(), "%u %u\n", e.src, e.dst) < 0) {
      return Status::IoError("write failed: " + path);
    }
  }
  return Status::OK();
}

StatusOr<EdgeList> ReadEdgeListText(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  EdgeList out;
  char line[256];
  VertexId max_id = 0;
  bool declared_vertices = false;
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    if (line[0] == '#') {
      unsigned declared = 0;
      if (std::sscanf(line, "# vertices: %u", &declared) == 1) {
        out.num_vertices = declared;
        declared_vertices = true;
      }
      continue;
    }
    unsigned src = 0;
    unsigned dst = 0;
    if (std::sscanf(line, "%u %u", &src, &dst) != 2) {
      return Status::InvalidArgument("malformed edge line in " + path + ": " +
                                     line);
    }
    out.edges.push_back(Edge{src, dst});
    max_id = std::max({max_id, src, dst});
  }
  if (!declared_vertices) {
    out.num_vertices = out.edges.empty() ? 0 : max_id + 1;
  } else if (!out.edges.empty() && max_id >= out.num_vertices) {
    return Status::InvalidArgument("edge id exceeds declared vertex count in " +
                                   path);
  }
  return out;
}

Status WriteEdgeListBinary(const EdgeList& edges, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open for write: " + path);
  uint64_t header[3] = {kBinaryMagic, edges.num_vertices, edges.edges.size()};
  if (std::fwrite(header, sizeof(header), 1, f.get()) != 1) {
    return Status::IoError("header write failed: " + path);
  }
  if (!edges.edges.empty() &&
      std::fwrite(edges.edges.data(), sizeof(Edge), edges.edges.size(), f.get()) !=
          edges.edges.size()) {
    return Status::IoError("edge write failed: " + path);
  }
  return Status::OK();
}

Status WriteMatrixMarket(const EdgeList& edges, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) return Status::IoError("cannot open for write: " + path);
  std::fprintf(f.get(),
               "%%%%MatrixMarket matrix coordinate pattern general\n");
  std::fprintf(f.get(), "%u %u %zu\n", edges.num_vertices, edges.num_vertices,
               edges.edges.size());
  for (const Edge& e : edges.edges) {
    // Matrix Market is 1-based and row-major: row = src, column = dst.
    if (std::fprintf(f.get(), "%u %u\n", e.src + 1, e.dst + 1) < 0) {
      return Status::IoError("write failed: " + path);
    }
  }
  return Status::OK();
}

StatusOr<EdgeList> ReadMatrixMarket(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  char line[512];
  if (std::fgets(line, sizeof(line), f.get()) == nullptr) {
    return Status::InvalidArgument("empty Matrix Market file: " + path);
  }
  if (std::strncmp(line, "%%MatrixMarket", 14) != 0) {
    return Status::InvalidArgument("missing MatrixMarket banner in " + path);
  }
  bool symmetric = std::strstr(line, "symmetric") != nullptr;
  if (std::strstr(line, "coordinate") == nullptr) {
    return Status::Unimplemented("only coordinate Matrix Market is supported");
  }

  // Skip comment lines, then read the size header.
  while (std::fgets(line, sizeof(line), f.get()) != nullptr && line[0] == '%') {
  }
  unsigned rows = 0;
  unsigned cols = 0;
  unsigned long long nnz = 0;
  if (std::sscanf(line, "%u %u %llu", &rows, &cols, &nnz) != 3) {
    return Status::InvalidArgument("malformed size header in " + path);
  }
  EdgeList out;
  out.num_vertices = std::max(rows, cols);
  out.edges.reserve(nnz);
  for (unsigned long long i = 0; i < nnz; ++i) {
    if (std::fgets(line, sizeof(line), f.get()) == nullptr) {
      return Status::IoError("truncated entry list in " + path);
    }
    unsigned r = 0;
    unsigned c = 0;
    // A trailing value column (real/integer formats) is ignored.
    if (std::sscanf(line, "%u %u", &r, &c) != 2) {
      return Status::InvalidArgument("malformed entry in " + path + ": " + line);
    }
    if (r == 0 || c == 0 || r > out.num_vertices || c > out.num_vertices) {
      return Status::OutOfRange("1-based index out of range in " + path);
    }
    out.edges.push_back(Edge{r - 1, c - 1});
    if (symmetric && r != c) out.edges.push_back(Edge{c - 1, r - 1});
  }
  return out;
}

StatusOr<EdgeList> ReadEdgeListBinary(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for read: " + path);
  uint64_t header[3];
  if (std::fread(header, sizeof(header), 1, f.get()) != 1) {
    return Status::IoError("header read failed: " + path);
  }
  if (header[0] != kBinaryMagic) {
    return Status::InvalidArgument("bad magic in " + path);
  }
  // The header is untrusted: bound both counts before allocating or narrowing.
  if (header[1] > std::numeric_limits<VertexId>::max()) {
    return Status::OutOfRange("vertex count exceeds 32-bit ids in " + path);
  }
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::IoError("seek failed: " + path);
  }
  long file_bytes = std::ftell(f.get());
  if (file_bytes < 0 ||
      std::fseek(f.get(), sizeof(header), SEEK_SET) != 0) {
    return Status::IoError("seek failed: " + path);
  }
  uint64_t body_bytes = static_cast<uint64_t>(file_bytes) - sizeof(header);
  if (header[2] > body_bytes / sizeof(Edge)) {
    return Status::IoError("edge array truncated (header count exceeds file "
                           "size): " + path);
  }
  EdgeList out;
  out.num_vertices = static_cast<VertexId>(header[1]);
  out.edges.resize(header[2]);
  if (!out.edges.empty() &&
      std::fread(out.edges.data(), sizeof(Edge), out.edges.size(), f.get()) !=
          out.edges.size()) {
    return Status::IoError("edge read failed: " + path);
  }
  VertexId max_id = 0;
  for (const Edge& e : out.edges) max_id = std::max({max_id, e.src, e.dst});
  if (!out.edges.empty() && max_id >= out.num_vertices) {
    return Status::InvalidArgument("edge id beyond vertex count in " + path);
  }
  return out;
}

}  // namespace maze
