// SnapshotStore — a chunked on-disk container for snapshot matrices,
// standing in for the NetCDF4 + parallel-IO layer the paper uses for the
// ERA5 experiment.
//
// Layout: a fixed header (global rows M, snapshot capacity hint, chunk
// width C) followed by column chunks; each chunk stores up to C full
// snapshots column-major. Appending snapshots only ever writes at the
// end; readers address any hyperslab (row range x snapshot range) with
// seek+read per column segment — the access pattern NetCDF hyperslab
// reads compile down to.
//
// Parallel reading: every rank opens the same file independently and
// pulls only its own row block (read_rows), exactly how a domain-
// decomposed analysis consumes a shared dataset on a parallel
// filesystem. Writers are single-owner (one process appends); this
// matches the producer/consumer split of the paper's workflow where the
// simulation writes and the analysis reads.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "linalg/matrix.hpp"

namespace parsvd::io {

/// Append-only writer. Creates/overwrites the file on construction.
class SnapshotWriter {
 public:
  /// `rows` is the global state dimension M; `chunk_cols` the number of
  /// snapshots per chunk (IO granularity, like a NetCDF chunk shape).
  SnapshotWriter(const std::string& path, Index rows, Index chunk_cols = 16);
  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Append one snapshot (length must equal rows()).
  void append(const Vector& snapshot);

  /// Append a batch (rows() x k matrix, snapshots as columns).
  void append_batch(const Matrix& batch);

  /// Flush buffered snapshots and finalize the header. Called by the
  /// destructor as well; explicit close surfaces IO errors.
  void close();

  Index rows() const { return rows_; }
  Index snapshots_written() const { return written_; }

 private:
  void flush_buffer();
  void rewrite_header();

  std::string path_;
  std::ofstream out_;
  Index rows_;
  Index chunk_cols_;
  Index written_ = 0;
  Matrix buffer_;        // rows_ x chunk_cols_, partially filled
  Index buffered_ = 0;
  bool closed_ = false;
};

/// Random-access reader.
class SnapshotReader {
 public:
  /// Throws IoError when the file is not a store or its header is
  /// corrupt: a non-positive extent, or one whose data region overflows
  /// a file offset.
  explicit SnapshotReader(const std::string& path);

  Index rows() const { return rows_; }
  Index snapshots() const { return snapshots_; }
  Index chunk_cols() const { return chunk_cols_; }

  /// Read full snapshots [col0, col0 + ncols) → rows() x ncols.
  Matrix read_snapshots(Index col0, Index ncols);

  /// Hyperslab: rows [row0, row0+nrows) of snapshots [col0, col0+ncols).
  /// This is the per-rank partitioned read used by the distributed
  /// pipeline.
  Matrix read_rows(Index row0, Index nrows, Index col0, Index ncols);

 private:
  /// Absolute file offset of element (row, snapshot_col).
  std::uint64_t element_offset(Index row, Index col) const;

  std::ifstream in_;
  std::string path_;
  Index rows_ = 0;
  Index snapshots_ = 0;
  Index chunk_cols_ = 0;
  std::uint64_t chunk_bytes_ = 0;  // rows_ x chunk_cols_ doubles, checked
};

}  // namespace parsvd::io
