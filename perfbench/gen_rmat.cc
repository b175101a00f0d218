// Seeded, sequential Graph500-style RMAT generator for the benchmark input.
//
// Usage: perfbench_gen --seed N --scale S --edge-factor F --out PATH
//
// Writes the deduplicated directed edge list (sorted, no self loops) in the
// maze binary edge-list format, in host byte order: three u64 header words
// {magic "MAZEGRAF", num_vertices, num_edges} followed by num_edges pairs of
// u32 {src, dst}. One RNG stream drives the whole graph, so the output depends
// only on (seed, scale, edge factor): never on thread count or core count.
// The generator shares no code with the program it feeds.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace {

constexpr uint64_t kMagic = 0x4D415A4547524146ull;  // "MAZEGRAF"
// Graph500 initiator probabilities; D = 1 - A - B - C = 0.05.
constexpr double kA = 0.57;
constexpr double kB = 0.19;
constexpr double kC = 0.19;

// SplitMix64 stream: one 64-bit draw per call.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }
  uint64_t NextBounded(uint64_t bound) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }
};

struct Edge {
  uint32_t src;
  uint32_t dst;
  bool operator<(const Edge& o) const {
    return src != o.src ? src < o.src : dst < o.dst;
  }
  bool operator==(const Edge& o) const { return src == o.src && dst == o.dst; }
};

bool ParseArgs(int argc, char** argv, uint64_t* seed, int* scale,
               int* edge_factor, std::string* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seed") {
      *seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--scale") {
      *scale = std::atoi(value);
    } else if (flag == "--edge-factor") {
      *edge_factor = std::atoi(value);
    } else if (flag == "--out") {
      *out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !out->empty() && *scale >= 1 && *scale <= 30 &&
         *edge_factor >= 1 && *edge_factor <= 64;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 0;
  int scale = 16;
  int edge_factor = 16;
  std::string out_path;
  if (!ParseArgs(argc, argv, &seed, &scale, &edge_factor, &out_path)) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --seed N --scale S --edge-factor F "
                 "--out PATH\n");
    return 2;
  }
  const uint64_t n = uint64_t{1} << scale;
  const uint64_t m = n * static_cast<uint64_t>(edge_factor);
  Rng rng{seed ^ 0x6A09E667F3BCC909ull};

  // Graph500 relabels vertices by a random permutation so that degree does not
  // correlate with id.
  std::vector<uint32_t> perm(n);
  for (uint64_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  for (uint64_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
  }

  std::vector<Edge> edges(m);
  for (Edge& e : edges) {
    uint32_t src = 0;
    uint32_t dst = 0;
    for (int level = 0; level < scale; ++level) {
      double r = rng.NextDouble();
      uint32_t row = r >= kA + kB;
      uint32_t col = (r >= kA && r < kA + kB) || r >= kA + kB + kC;
      src = (src << 1) | row;
      dst = (dst << 1) | col;
    }
    e = Edge{perm[src], perm[dst]};
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const Edge& e) { return e.src == e.dst; }),
              edges.end());

  FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_gen: cannot open %s\n", out_path.c_str());
    return 1;
  }
  uint64_t header[3] = {kMagic, n, edges.size()};
  bool ok = std::fwrite(header, sizeof(header), 1, f) == 1 &&
            std::fwrite(edges.data(), sizeof(Edge), edges.size(), f) ==
                edges.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::fprintf(stderr, "perfbench_gen: write failed for %s\n",
                 out_path.c_str());
    return 1;
  }
  std::printf("perfbench_gen: seed=%llu scale=%d edge_factor=%d vertices=%llu "
              "edges=%zu\n",
              static_cast<unsigned long long>(seed), scale, edge_factor,
              static_cast<unsigned long long>(n), edges.size());
  return 0;
}
