// IO tests: binary matrix/vector round-trips, CSV, and the chunked
// SnapshotStore including hyperslab reads and malformed-file handling.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "io/matrix_io.hpp"
#include "io/snapshot_store.hpp"
#include "test_utils.hpp"

namespace parsvd {
namespace {

using testing::expect_matrix_near;

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("parsvd_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(IoTest, MatrixBinaryRoundTrip) {
  const Matrix m = testing::random_matrix(17, 9, 1);
  io::write_matrix(path("m.bin"), m);
  expect_matrix_near(io::read_matrix(path("m.bin")), m, 0.0);
}

TEST_F(IoTest, EmptyMatrixRoundTrip) {
  io::write_matrix(path("e.bin"), Matrix{});
  EXPECT_TRUE(io::read_matrix(path("e.bin")).empty());
}

TEST_F(IoTest, VectorRoundTrip) {
  Vector v{1.5, -2.25, 1e-300, 1e300};
  io::write_vector(path("v.bin"), v);
  testing::expect_vector_near(io::read_vector(path("v.bin")), v, 0.0);
}

TEST_F(IoTest, ReadMissingFileThrows) {
  EXPECT_THROW(io::read_matrix(path("nope.bin")), IoError);
}

TEST_F(IoTest, ReadGarbageThrows) {
  std::ofstream out(path("garbage.bin"), std::ios::binary);
  out << "this is not a matrix";
  out.close();
  EXPECT_THROW(io::read_matrix(path("garbage.bin")), IoError);
}

TEST_F(IoTest, ReadTruncatedThrows) {
  const Matrix m = testing::random_matrix(10, 10, 2);
  io::write_matrix(path("t.bin"), m);
  std::filesystem::resize_file(path("t.bin"), 64);
  EXPECT_THROW(io::read_matrix(path("t.bin")), IoError);
}

TEST_F(IoTest, ReadOverflowingExtentThrowsDimensionError) {
  // A well-formed header whose rows*cols (2^32 * 2^32) wraps to 0 must be
  // rejected before allocation, not yield a Matrix that misreports its
  // size.
  struct {
    std::uint64_t magic = 0x5053564d41545258ULL;  // "PSVMATRX"
    std::uint32_t version = 1;
    std::uint32_t reserved = 0;
    std::int64_t rows = std::int64_t{1} << 32;
    std::int64_t cols = std::int64_t{1} << 32;
  } header;
  static_assert(sizeof(header) == 32);
  std::ofstream out(path("huge.bin"), std::ios::binary);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.close();
  EXPECT_THROW(io::read_matrix(path("huge.bin")), DimensionError);
}

TEST_F(IoTest, VectorFileRejectsMatrix) {
  io::write_matrix(path("m2.bin"), Matrix(3, 2, 1.0));
  EXPECT_THROW(io::read_vector(path("m2.bin")), IoError);
}

TEST_F(IoTest, CsvRoundTripNoHeader) {
  const Matrix m = testing::random_matrix(5, 3, 3);
  io::write_csv(path("m.csv"), m);
  expect_matrix_near(io::read_csv(path("m.csv")), m, 0.0);
}

TEST_F(IoTest, CsvRoundTripWithHeader) {
  const Matrix m = testing::random_matrix(4, 2, 4);
  io::write_csv(path("h.csv"), m, {"alpha", "beta"});
  expect_matrix_near(io::read_csv(path("h.csv")), m, 0.0);
  // Header text present in the file.
  std::ifstream in(path("h.csv"));
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "alpha,beta");
}

TEST_F(IoTest, CsvHeaderCountValidated) {
  EXPECT_THROW(io::write_csv(path("bad.csv"), Matrix(2, 2), {"only_one"}),
               Error);
}

TEST_F(IoTest, CsvEmptyFileGivesEmptyMatrix) {
  std::ofstream(path("empty.csv")).close();
  EXPECT_TRUE(io::read_csv(path("empty.csv")).empty());
}

// --------------------------------------------------------- SnapshotStore

TEST_F(IoTest, StoreRoundTripExactChunks) {
  const Matrix data = testing::random_matrix(20, 8, 5);
  {
    io::SnapshotWriter w(path("s.snap"), 20, /*chunk_cols=*/4);
    w.append_batch(data);
    w.close();
  }
  io::SnapshotReader r(path("s.snap"));
  EXPECT_EQ(r.rows(), 20);
  EXPECT_EQ(r.snapshots(), 8);
  EXPECT_EQ(r.chunk_cols(), 4);
  expect_matrix_near(r.read_snapshots(0, 8), data, 0.0);
}

TEST_F(IoTest, StorePartialFinalChunk) {
  const Matrix data = testing::random_matrix(10, 7, 6);
  {
    io::SnapshotWriter w(path("p.snap"), 10, 4);  // 7 = 4 + 3 (partial)
    w.append_batch(data);
    w.close();
  }
  io::SnapshotReader r(path("p.snap"));
  EXPECT_EQ(r.snapshots(), 7);
  expect_matrix_near(r.read_snapshots(0, 7), data, 0.0);
}

TEST_F(IoTest, StoreAppendOneByOne) {
  const Matrix data = testing::random_matrix(6, 5, 7);
  {
    io::SnapshotWriter w(path("o.snap"), 6, 2);
    for (Index j = 0; j < 5; ++j) w.append(data.col(j));
    EXPECT_EQ(w.snapshots_written(), 5);
    w.close();
  }
  io::SnapshotReader r(path("o.snap"));
  expect_matrix_near(r.read_snapshots(0, 5), data, 0.0);
}

TEST_F(IoTest, StoreHyperslabReads) {
  const Matrix data = testing::random_matrix(30, 12, 8);
  {
    io::SnapshotWriter w(path("hs.snap"), 30, 5);
    w.append_batch(data);
    w.close();
  }
  io::SnapshotReader r(path("hs.snap"));
  // Row block in the middle, column range crossing a chunk boundary.
  const Matrix slab = r.read_rows(7, 11, 3, 6);
  expect_matrix_near(slab, data.block(7, 3, 11, 6), 0.0);
}

TEST_F(IoTest, StorePartitionedReadsCoverMatrix) {
  // Simulate 3 ranks each reading a disjoint row block; together they
  // must reconstruct the full data (the parallel-IO pattern).
  const Matrix data = testing::random_matrix(25, 9, 9);
  {
    io::SnapshotWriter w(path("pr.snap"), 25, 4);
    w.append_batch(data);
    w.close();
  }
  std::vector<Matrix> blocks;
  const Index counts[3] = {9, 8, 8};
  Index offset = 0;
  for (int rank = 0; rank < 3; ++rank) {
    io::SnapshotReader r(path("pr.snap"));  // independent open per rank
    blocks.push_back(r.read_rows(offset, counts[rank], 0, 9));
    offset += counts[rank];
  }
  expect_matrix_near(vcat(blocks), data, 0.0);
}

TEST_F(IoTest, StoreOutOfRangeHyperslabThrows) {
  {
    io::SnapshotWriter w(path("r.snap"), 10, 2);
    w.append_batch(Matrix(10, 4, 1.0));
    w.close();
  }
  io::SnapshotReader r(path("r.snap"));
  EXPECT_THROW(r.read_rows(8, 5, 0, 1), Error);   // rows overflow
  EXPECT_THROW(r.read_rows(0, 1, 3, 5), Error);   // cols overflow
  EXPECT_THROW(r.read_rows(-1, 2, 0, 1), Error);  // negative
}

TEST_F(IoTest, StoreAppendShapeValidated) {
  io::SnapshotWriter w(path("shape.snap"), 8, 2);
  EXPECT_THROW(w.append(Vector(7)), Error);
  EXPECT_THROW(w.append_batch(Matrix(9, 2, 0.0)), Error);
}

TEST_F(IoTest, StoreWriteAfterCloseThrows) {
  io::SnapshotWriter w(path("closed.snap"), 4, 2);
  w.append(Vector(4, 1.0));
  w.close();
  EXPECT_THROW(w.append(Vector(4, 1.0)), Error);
}

TEST_F(IoTest, StoreRejectsForeignFile) {
  io::write_matrix(path("notstore.bin"), Matrix(2, 2, 1.0));
  EXPECT_THROW(io::SnapshotReader r(path("notstore.bin")), IoError);
}

TEST_F(IoTest, StoreRejectsCorruptHeaderWithIoError) {
  // A store header is untrusted input. rows = 2^61 with chunk_cols = 1
  // wraps rows * chunk_cols * 8 to 0 in 64 bits, which would alias every
  // chunk onto the header and first column; non-positive extents are
  // corrupt too. Each must be an IoError at open, before any read.
  struct Extents {
    std::int64_t rows, snapshots, chunk_cols;
  };
  const Extents corrupt[] = {
      {std::int64_t{1} << 61, 2, 1},   // chunk bytes wrap to 0
      {std::int64_t{1} << 60, 1, 1},   // 2^63 bytes: past any streamoff
      {0, 1, 1},
      {-5, 1, 1},
      {4, -1, 2},
      {4, 1, 0},
  };
  for (const Extents& e : corrupt) {
    struct {
      std::uint64_t magic = 0x50535644534e4150ULL;  // "PSVDSNAP"
      std::uint32_t version = 1;
      std::uint32_t reserved = 0;
      std::int64_t rows, snapshots, chunk_cols;
    } header;
    static_assert(sizeof(header) == 40);
    header.rows = e.rows;
    header.snapshots = e.snapshots;
    header.chunk_cols = e.chunk_cols;
    {
      std::ofstream out(path("corrupt.snap"), std::ios::binary);
      out.write(reinterpret_cast<const char*>(&header), sizeof(header));
      const std::vector<double> payload(8, 1.0);
      out.write(reinterpret_cast<const char*>(payload.data()),
                static_cast<std::streamsize>(payload.size() * sizeof(double)));
    }
    EXPECT_THROW(io::SnapshotReader r(path("corrupt.snap")), IoError)
        << "rows=" << e.rows << " snapshots=" << e.snapshots
        << " chunk_cols=" << e.chunk_cols;
  }
}

TEST_F(IoTest, StoreHeaderCountsVisibleBeforeClose) {
  // Destructor-close path: writer goes out of scope without close().
  const Matrix data = testing::random_matrix(5, 3, 10);
  {
    io::SnapshotWriter w(path("d.snap"), 5, 2);
    w.append_batch(data);
  }
  io::SnapshotReader r(path("d.snap"));
  EXPECT_EQ(r.snapshots(), 3);
  expect_matrix_near(r.read_snapshots(0, 3), data, 0.0);
}

TEST_F(IoTest, LargeChunkSingle) {
  // chunk wider than total snapshots.
  const Matrix data = testing::random_matrix(12, 3, 11);
  {
    io::SnapshotWriter w(path("wide.snap"), 12, 64);
    w.append_batch(data);
    w.close();
  }
  io::SnapshotReader r(path("wide.snap"));
  expect_matrix_near(r.read_snapshots(0, 3), data, 0.0);
}

}  // namespace
}  // namespace parsvd
