#include "io/snapshot_store.hpp"

#include <algorithm>
#include <limits>

namespace parsvd::io {
namespace {

constexpr std::uint64_t kSnapMagic = 0x50535644534e4150ULL;  // "PSVDSNAP"
constexpr std::uint32_t kVersion = 1;

struct Header {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t reserved;
  std::int64_t rows;
  std::int64_t snapshots;
  std::int64_t chunk_cols;
};
static_assert(sizeof(Header) == 40);

}  // namespace

// ----------------------------------------------------------- SnapshotWriter

SnapshotWriter::SnapshotWriter(const std::string& path, Index rows,
                               Index chunk_cols)
    : path_(path), rows_(rows), chunk_cols_(chunk_cols) {
  PARSVD_REQUIRE(rows > 0, "snapshot rows must be positive");
  PARSVD_REQUIRE(chunk_cols > 0, "chunk width must be positive");
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) throw IoError("cannot create snapshot store: " + path);
  rewrite_header();
  buffer_ = Matrix(rows_, chunk_cols_);
}

SnapshotWriter::~SnapshotWriter() {
  try {
    close();
  } catch (...) {
    // Destructors must not throw; explicit close() reports errors.
  }
}

void SnapshotWriter::rewrite_header() {
  const Header h{kSnapMagic,
                 kVersion,
                 0,
                 static_cast<std::int64_t>(rows_),
                 static_cast<std::int64_t>(written_),
                 static_cast<std::int64_t>(chunk_cols_)};
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(&h), sizeof(h));
  out_.seekp(0, std::ios::end);
  if (!out_) throw IoError("header write failed: " + path_);
}

void SnapshotWriter::flush_buffer() {
  if (buffered_ == 0) return;
  // A chunk always occupies chunk_cols_ columns on disk (trailing columns
  // of a partial final chunk are zero-padded) so reader offsets stay
  // O(1)-computable.
  out_.seekp(0, std::ios::end);
  Matrix padded = buffer_;
  for (Index j = buffered_; j < chunk_cols_; ++j) {
    auto col = padded.col_span(j);
    std::fill(col.begin(), col.end(), 0.0);
  }
  out_.write(reinterpret_cast<const char*>(padded.data()),
             static_cast<std::streamsize>(
                 static_cast<std::size_t>(padded.size()) * sizeof(double)));
  if (!out_) throw IoError("chunk write failed: " + path_);
  buffered_ = 0;
}

void SnapshotWriter::append(const Vector& snapshot) {
  PARSVD_REQUIRE(!closed_, "writer already closed");
  PARSVD_REQUIRE(snapshot.size() == rows_, "snapshot length mismatch");
  buffer_.set_col(buffered_, snapshot);
  ++buffered_;
  ++written_;
  if (buffered_ == chunk_cols_) flush_buffer();
}

void SnapshotWriter::append_batch(const Matrix& batch) {
  PARSVD_REQUIRE(batch.rows() == rows_, "batch row mismatch");
  for (Index j = 0; j < batch.cols(); ++j) append(batch.col(j));
}

void SnapshotWriter::close() {
  if (closed_) return;
  flush_buffer();
  rewrite_header();
  out_.flush();
  if (!out_) throw IoError("close failed: " + path_);
  out_.close();
  closed_ = true;
}

// ----------------------------------------------------------- SnapshotReader

SnapshotReader::SnapshotReader(const std::string& path) : path_(path) {
  in_.open(path, std::ios::binary);
  if (!in_) throw IoError("cannot open snapshot store: " + path);
  Header h{};
  in_.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!in_ || h.magic != kSnapMagic) {
    throw IoError("not a snapshot store: " + path);
  }
  if (h.version != kVersion) throw IoError("unsupported store version: " + path);
  if (h.rows <= 0 || h.snapshots < 0 || h.chunk_cols <= 0) {
    throw IoError("corrupt snapshot store header (bad extent): " + path);
  }
  rows_ = static_cast<Index>(h.rows);
  snapshots_ = static_cast<Index>(h.snapshots);
  chunk_cols_ = static_cast<Index>(h.chunk_cols);
  // Every offset element_offset forms lies inside the data region of
  // whole chunks, so checking that region's extent once makes the
  // per-read arithmetic overflow-free.
  const auto chunks = static_cast<std::uint64_t>(
      snapshots_ / chunk_cols_ + (snapshots_ % chunk_cols_ != 0 ? 1 : 0));
  std::uint64_t data_bytes = 0;
  if (__builtin_mul_overflow(static_cast<std::uint64_t>(rows_),
                             static_cast<std::uint64_t>(chunk_cols_),
                             &chunk_bytes_) ||
      __builtin_mul_overflow(chunk_bytes_, sizeof(double), &chunk_bytes_) ||
      __builtin_mul_overflow(chunk_bytes_, chunks, &data_bytes) ||
      data_bytes > static_cast<std::uint64_t>(
                       std::numeric_limits<std::streamoff>::max()) -
                       sizeof(Header)) {
    throw IoError(
        "corrupt snapshot store header (extent overflows a file offset): " +
        path);
  }
}

std::uint64_t SnapshotReader::element_offset(Index row, Index col) const {
  const std::uint64_t chunk = static_cast<std::uint64_t>(col / chunk_cols_);
  const std::uint64_t col_in_chunk = static_cast<std::uint64_t>(col % chunk_cols_);
  return sizeof(Header) + chunk * chunk_bytes_ +
         (col_in_chunk * static_cast<std::uint64_t>(rows_) +
          static_cast<std::uint64_t>(row)) *
             sizeof(double);
}

Matrix SnapshotReader::read_snapshots(Index col0, Index ncols) {
  return read_rows(0, rows_, col0, ncols);
}

Matrix SnapshotReader::read_rows(Index row0, Index nrows, Index col0,
                                 Index ncols) {
  PARSVD_REQUIRE(row0 >= 0 && nrows > 0 && row0 + nrows <= rows_,
                 "row hyperslab out of range");
  PARSVD_REQUIRE(col0 >= 0 && ncols > 0 && col0 + ncols <= snapshots_,
                 "snapshot hyperslab out of range");
  Matrix out(nrows, ncols);
  for (Index j = 0; j < ncols; ++j) {
    // One contiguous read per column segment — the column is contiguous
    // within its chunk, so the row range maps to a single span.
    in_.seekg(static_cast<std::streamoff>(element_offset(row0, col0 + j)));
    in_.read(reinterpret_cast<char*>(out.col_data(j)),
             static_cast<std::streamsize>(static_cast<std::size_t>(nrows) *
                                          sizeof(double)));
    if (!in_) throw IoError("hyperslab read failed: " + path_);
  }
  return out;
}

}  // namespace parsvd::io
