#ifndef EDGE_NN_SPARSE_H_
#define EDGE_NN_SPARSE_H_

#include <cstddef>
#include <vector>

#include "edge/nn/matrix.h"

namespace edge::nn {

/// One entry of a sparse matrix in coordinate form.
struct Triplet {
  size_t row = 0;
  size_t col = 0;
  double value = 0.0;
};

/// Compressed-sparse-row matrix. Used for the normalized entity-graph
/// adjacency S = D̃^{-1/2} Ã D̃^{-1/2} that every GCN layer multiplies by
/// (Eq. 1). Immutable after construction.
class CsrMatrix {
 public:
  CsrMatrix() : rows_(0), cols_(0) {}

  /// Builds from coordinate triplets; duplicate (row, col) entries are summed.
  static CsrMatrix FromTriplets(size_t rows, size_t cols, std::vector<Triplet> triplets);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  const std::vector<size_t>& row_offsets() const { return row_offsets_; }
  const std::vector<size_t>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

  /// Returns this * dense (rows x dense.cols()).
  Matrix Multiply(const Matrix& dense) const;

  /// Returns rows `rows` of this * dense (rows.size() x dense.cols()): row i
  /// is row rows[i] of Multiply(dense), bitwise.
  Matrix MultiplyRows(const std::vector<size_t>& rows, const Matrix& dense) const;

  /// Returns this^T * dense. For the symmetric normalized adjacency this
  /// equals Multiply, but backward passes must not rely on symmetry.
  Matrix MultiplyTranspose(const Matrix& dense) const;

  /// Returns this[rows, :]^T * dense (cols() x dense.cols()), where dense row
  /// i goes with matrix row rows[i] — the backward of MultiplyRows. Rows are
  /// scattered in the listed order, so for ascending `rows` each output
  /// element receives MultiplyTranspose's products in MultiplyTranspose's
  /// order, minus those of the rows not listed.
  Matrix MultiplyRowsTranspose(const std::vector<size_t>& rows,
                               const Matrix& dense) const;

  /// Densifies (tests / debugging only).
  Matrix ToDense() const;

 private:
  /// The kernels behind the four products: `rows` lists `count` matrix
  /// rows, or is null for all of them in order.
  Matrix MultiplyImpl(const size_t* rows, size_t count, const Matrix& dense) const;
  Matrix MultiplyTransposeImpl(const size_t* rows, size_t count,
                               const Matrix& dense) const;

  size_t rows_;
  size_t cols_;
  std::vector<size_t> row_offsets_;  // size rows_ + 1
  std::vector<size_t> col_indices_;  // size nnz
  std::vector<double> values_;       // size nnz
};

}  // namespace edge::nn

#endif  // EDGE_NN_SPARSE_H_
