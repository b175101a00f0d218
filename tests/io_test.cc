#include "core/io.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace maze {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

EdgeList SampleEdges() {
  EdgeList el;
  el.num_vertices = 10;
  el.edges = {{0, 1}, {1, 2}, {9, 0}, {3, 7}};
  return el;
}

TEST(IoTest, TextRoundTrip) {
  std::string path = TempPath("graph.txt");
  EdgeList original = SampleEdges();
  ASSERT_TRUE(WriteEdgeListText(original, path).ok());
  auto loaded = ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_vertices, original.num_vertices);
  EXPECT_EQ(loaded.value().edges, original.edges);
  std::remove(path.c_str());
}

TEST(IoTest, BinaryRoundTrip) {
  std::string path = TempPath("graph.bin");
  EdgeList original = SampleEdges();
  ASSERT_TRUE(WriteEdgeListBinary(original, path).ok());
  auto loaded = ReadEdgeListBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_vertices, original.num_vertices);
  EXPECT_EQ(loaded.value().edges, original.edges);
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileIsIoError) {
  auto result = ReadEdgeListText("/nonexistent/dir/graph.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(IoTest, MalformedLineIsInvalidArgument) {
  std::string path = TempPath("bad.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("0 1\nnot an edge\n", f);
  fclose(f);
  auto result = ReadEdgeListText(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IoTest, UndeclaredVertexCountInferred) {
  std::string path = TempPath("nover.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("0 5\n2 3\n", f);
  fclose(f);
  auto result = ReadEdgeListText(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_vertices, 6u);
  std::remove(path.c_str());
}

TEST(IoTest, EdgeIdBeyondDeclaredCountRejected) {
  std::string path = TempPath("overflow.txt");
  FILE* f = fopen(path.c_str(), "w");
  fputs("# vertices: 3\n0 5\n", f);
  fclose(f);
  auto result = ReadEdgeListText(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IoTest, BadMagicRejected) {
  std::string path = TempPath("badmagic.bin");
  FILE* f = fopen(path.c_str(), "wb");
  uint64_t garbage[3] = {0x1234, 5, 0};
  fwrite(garbage, sizeof(garbage), 1, f);
  fclose(f);
  auto result = ReadEdgeListBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// Writes a binary edge-list file with the given header and raw edge words.
void WriteRawBinary(const std::string& path, uint64_t num_vertices,
                    uint64_t num_edges, const std::vector<uint32_t>& words) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  uint64_t header[3] = {0x4D415A4547524146ull, num_vertices, num_edges};
  fwrite(header, sizeof(header), 1, f);
  if (!words.empty()) fwrite(words.data(), sizeof(uint32_t), words.size(), f);
  fclose(f);
}

TEST(IoTest, BinaryTruncatedBodyRejected) {
  std::string path = TempPath("truncated.bin");
  ASSERT_TRUE(WriteEdgeListBinary(SampleEdges(), path).ok());
  // Cut the last edge in half.
  FILE* f = fopen(path.c_str(), "rb");
  std::vector<char> bytes(24 + 4 * 8);
  ASSERT_EQ(fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  fclose(f);
  f = fopen(path.c_str(), "wb");
  fwrite(bytes.data(), 1, bytes.size() - 4, f);
  fclose(f);
  auto result = ReadEdgeListBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(IoTest, BinaryOversizedEdgeCountRejected) {
  // A count the file cannot hold must fail before any allocation.
  std::string path = TempPath("oversized_edges.bin");
  WriteRawBinary(path, 4, uint64_t{1} << 60, {0, 1});
  auto result = ReadEdgeListBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(IoTest, BinaryOversizedVertexCountRejected) {
  std::string path = TempPath("oversized_vertices.bin");
  WriteRawBinary(path, uint64_t{1} << 32, 1, {0, 1});
  auto result = ReadEdgeListBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(IoTest, BinaryEdgeIdOutOfRangeRejected) {
  std::string path = TempPath("bad_id.bin");
  WriteRawBinary(path, 3, 2, {0, 1, 2, 3});  // Edge (2, 3) with 3 vertices.
  auto result = ReadEdgeListBinary(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IoTest, EmptyGraphRoundTrips) {
  std::string path = TempPath("empty.bin");
  EdgeList empty;
  empty.num_vertices = 42;
  ASSERT_TRUE(WriteEdgeListBinary(empty, path).ok());
  auto loaded = ReadEdgeListBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_vertices, 42u);
  EXPECT_TRUE(loaded.value().edges.empty());
  std::remove(path.c_str());
}

TEST(IoTest, MatrixMarketRoundTrip) {
  std::string path = TempPath("graph.mtx");
  EdgeList original = SampleEdges();
  ASSERT_TRUE(WriteMatrixMarket(original, path).ok());
  auto loaded = ReadMatrixMarket(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_vertices, original.num_vertices);
  EXPECT_EQ(loaded.value().edges, original.edges);
  std::remove(path.c_str());
}

TEST(IoTest, MatrixMarketSymmetricExpandsMirroredEdges) {
  std::string path = TempPath("sym.mtx");
  FILE* f = fopen(path.c_str(), "w");
  fputs("%%MatrixMarket matrix coordinate pattern symmetric\n", f);
  fputs("% a comment line\n", f);
  fputs("3 3 2\n1 2\n2 3\n", f);
  fclose(f);
  auto loaded = ReadMatrixMarket(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().edges,
            (std::vector<Edge>{{0, 1}, {1, 0}, {1, 2}, {2, 1}}));
  std::remove(path.c_str());
}

TEST(IoTest, MatrixMarketIgnoresValueColumn) {
  std::string path = TempPath("vals.mtx");
  FILE* f = fopen(path.c_str(), "w");
  fputs("%%MatrixMarket matrix coordinate real general\n", f);
  fputs("2 2 1\n1 2 3.75\n", f);
  fclose(f);
  auto loaded = ReadMatrixMarket(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().edges, (std::vector<Edge>{{0, 1}}));
  std::remove(path.c_str());
}

TEST(IoTest, MatrixMarketRejectsMissingBanner) {
  std::string path = TempPath("nobanner.mtx");
  FILE* f = fopen(path.c_str(), "w");
  fputs("3 3 1\n1 2\n", f);
  fclose(f);
  auto loaded = ReadMatrixMarket(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(IoTest, MatrixMarketRejectsZeroBasedIndices) {
  std::string path = TempPath("zerobased.mtx");
  FILE* f = fopen(path.c_str(), "w");
  fputs("%%MatrixMarket matrix coordinate pattern general\n", f);
  fputs("3 3 1\n0 2\n", f);
  fclose(f);
  auto loaded = ReadMatrixMarket(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kOutOfRange);
  std::remove(path.c_str());
}

TEST(IoTest, MatrixMarketRejectsTruncatedEntries) {
  std::string path = TempPath("short.mtx");
  FILE* f = fopen(path.c_str(), "w");
  fputs("%%MatrixMarket matrix coordinate pattern general\n", f);
  fputs("3 3 5\n1 2\n", f);
  fclose(f);
  auto loaded = ReadMatrixMarket(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace maze
