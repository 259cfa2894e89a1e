#include <gtest/gtest.h>

#include <complex>
#include <random>

#include "lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/stats.hpp"

namespace trdse::linalg {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Matrix, MatVec) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = matVec(m, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, MatTVec) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  const Vector y = matTVec(m, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(Matrix, MatMulIdentity) {
  Matrix a{{2.0, -1.0}, {0.5, 3.0}};
  Matrix eye{{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_EQ(matMul(a, eye), a);
  EXPECT_EQ(matMul(eye, a), a);
}

TEST(Matrix, ArithmeticOps) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b = a;
  b += a;
  EXPECT_DOUBLE_EQ(b(1, 1), 8.0);
  b -= a;
  EXPECT_EQ(b, a);
  b *= 3.0;
  EXPECT_DOUBLE_EQ(b(0, 0), 3.0);
}

TEST(VectorOps, DotAndNorms) {
  const Vector a = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  EXPECT_DOUBLE_EQ(normInf({-7.0, 2.0}), 7.0);
}

TEST(VectorOps, AxpyAndScaled) {
  Vector y = {1.0, 1.0};
  axpy(2.0, {1.0, -1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  const Vector s = scaled({2.0, 4.0}, 0.5);
  EXPECT_DOUBLE_EQ(s[0], 1.0);
  EXPECT_DOUBLE_EQ(s[1], 2.0);
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const auto x = LuSolver<double>::solveSystem(a, {3.0, 5.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 0.8, 1e-12);
  EXPECT_NEAR((*x)[1], 1.4, 1e-12);
}

TEST(Lu, DetectsSingular) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_FALSE(LuSolver<double>::solveSystem(a, {1.0, 1.0}).has_value());
}

TEST(Lu, RequiresPivoting) {
  // Zero on the diagonal forces a row swap.
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const auto x = LuSolver<double>::solveSystem(a, {2.0, 3.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 3.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(Lu, ReusableFactorization) {
  Matrix a{{4.0, 1.0}, {2.0, 3.0}};
  LuSolver<double> lu;
  ASSERT_TRUE(lu.factor(a));
  const Vector x1 = lu.solve({5.0, 5.0});
  const Vector x2 = lu.solve({1.0, 0.0});
  EXPECT_NEAR(4.0 * x1[0] + x1[1], 5.0, 1e-12);
  EXPECT_NEAR(4.0 * x2[0] + x2[1], 1.0, 1e-12);
  EXPECT_NEAR(2.0 * x2[0] + 3.0 * x2[1], 0.0, 1e-12);
}

TEST(Lu, ComplexSystem) {
  using C = std::complex<double>;
  ComplexMatrix a(2, 2);
  a(0, 0) = {1.0, 1.0};
  a(0, 1) = {0.0, -1.0};
  a(1, 0) = {2.0, 0.0};
  a(1, 1) = {3.0, 1.0};
  const ComplexVector b = {{1.0, 0.0}, {0.0, 2.0}};
  const auto x = LuSolver<C>::solveSystem(a, b);
  ASSERT_TRUE(x.has_value());
  // Verify A x == b.
  for (std::size_t r = 0; r < 2; ++r) {
    C acc{0.0, 0.0};
    for (std::size_t c = 0; c < 2; ++c) acc += a(r, c) * (*x)[c];
    EXPECT_NEAR(std::abs(acc - b[r]), 0.0, 1e-12);
  }
}

class LuRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(LuRandomTest, ResidualSmallOnRandomSystems) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  const std::size_t n = 5 + static_cast<std::size_t>(GetParam()) % 15;
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = d(rng);
    a(r, r) += 3.0;  // diagonally dominant => well conditioned
  }
  Vector b(n);
  for (auto& v : b) v = d(rng);
  const auto x = LuSolver<double>::solveSystem(a, b);
  ASSERT_TRUE(x.has_value());
  const Vector ax = matVec(a, *x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LuRandomTest, ::testing::Range(0, 12));

TEST(Stats, SummaryBasics) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_NEAR(s.stddev, 1.2909944, 1e-6);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Stats, EmptyAndSingle) {
  EXPECT_EQ(summarize({}).count, 0u);
  const Summary s = summarize({7.0});
  EXPECT_DOUBLE_EQ(s.mean, 7.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Stats, Percentile) {
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0, 3.0}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 3.0}, 50.0), 2.0);
}

}  // namespace
}  // namespace trdse::linalg
