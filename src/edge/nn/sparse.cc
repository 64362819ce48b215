#include "edge/nn/sparse.h"

#include <algorithm>

#include "edge/common/thread_pool.h"

namespace edge::nn {

CsrMatrix CsrMatrix::FromTriplets(size_t rows, size_t cols, std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    EDGE_CHECK_LT(t.row, rows);
    EDGE_CHECK_LT(t.col, cols);
  }
  std::sort(triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_offsets_.assign(rows + 1, 0);
  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    m.col_indices_.push_back(triplets[i].col);
    m.values_.push_back(sum);
    m.row_offsets_[triplets[i].row + 1] += 1;
    i = j;
  }
  for (size_t r = 0; r < rows; ++r) m.row_offsets_[r + 1] += m.row_offsets_[r];
  return m;
}

Matrix CsrMatrix::Multiply(const Matrix& dense) const {
  return MultiplyImpl(nullptr, rows_, dense);
}

Matrix CsrMatrix::MultiplyRows(const std::vector<size_t>& rows,
                               const Matrix& dense) const {
  for (size_t r : rows) EDGE_CHECK_LT(r, rows_);
  return MultiplyImpl(rows.data(), rows.size(), dense);
}

Matrix CsrMatrix::MultiplyTranspose(const Matrix& dense) const {
  return MultiplyTransposeImpl(nullptr, rows_, dense);
}

Matrix CsrMatrix::MultiplyRowsTranspose(const std::vector<size_t>& rows,
                                        const Matrix& dense) const {
  for (size_t r : rows) EDGE_CHECK_LT(r, rows_);
  return MultiplyTransposeImpl(rows.data(), rows.size(), dense);
}

Matrix CsrMatrix::MultiplyImpl(const size_t* rows, size_t count,
                               const Matrix& dense) const {
  EDGE_CHECK_EQ(cols_, dense.rows());
  Matrix out(count, dense.cols());
  // Row-parallel: each output row reads one CSR row and writes only itself,
  // in the same k order as the serial loop — bitwise identical at any thread
  // count. This is the GCN propagation kernel (S * H, Eq. 1).
  size_t avg_row_flops =
      rows_ == 0 ? 1 : std::max<size_t>(1, 2 * nnz() * dense.cols() / rows_);
  size_t grain = std::clamp<size_t>(16384 / avg_row_flops, 1, std::max<size_t>(count, 1));
  const size_t dense_cols = dense.cols();
  ParallelFor(0, count, grain, [&](size_t i_begin, size_t i_end) {
    for (size_t i = i_begin; i < i_end; ++i) {
      const size_t r = rows == nullptr ? i : rows[i];
      double* EDGE_RESTRICT orow = out.row_data(i);
      for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
        double v = values_[k];
        const double* EDGE_RESTRICT drow = dense.row_data(col_indices_[k]);
        for (size_t c = 0; c < dense_cols; ++c) orow[c] += v * drow[c];
      }
    }
  });
  return out;
}

Matrix CsrMatrix::MultiplyTransposeImpl(const size_t* rows, size_t count,
                                        const Matrix& dense) const {
  EDGE_CHECK_EQ(count, dense.rows());
  Matrix out(cols_, dense.cols());
  // The transpose product scatters into out rows chosen by col_indices_, so
  // row-parallelism would race. Instead each chunk owns a disjoint SLICE OF
  // COLUMNS of out/dense: every thread rescans the CSR structure but touches
  // only its columns, and per-element accumulation stays in the listed row
  // order (bitwise parity with serial). Column slices are kept wide so the
  // rescan overhead is amortized over real work.
  size_t grain = std::max<size_t>(8, dense.cols() / 16);
  ParallelFor(0, dense.cols(), grain, [&](size_t col_begin, size_t col_end) {
    for (size_t i = 0; i < count; ++i) {
      const size_t r = rows == nullptr ? i : rows[i];
      const double* EDGE_RESTRICT drow = dense.row_data(i);
      for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
        double v = values_[k];
        double* EDGE_RESTRICT orow = out.row_data(col_indices_[k]);
        for (size_t c = col_begin; c < col_end; ++c) orow[c] += v * drow[c];
      }
    }
  });
  return out;
}

Matrix CsrMatrix::ToDense() const {
  Matrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      out.At(r, col_indices_[k]) += values_[k];
    }
  }
  return out;
}

}  // namespace edge::nn
