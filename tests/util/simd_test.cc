// Property tests for the scalar codec kernels. Each kernel is checked bit
// for bit against a plain reference written out here from the contract in
// simd.h, so a change to a kernel's evaluation order (and therefore to the
// archive bytes) fails a named kernel test before it fails the archive
// pins. Sweeps cover odd lengths, unaligned starting offsets and ragged
// tails of the 4-lane reductions.

#include "src/util/simd.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/random.h"

namespace fxrz {
namespace {

// Lengths chosen to hit empty input, lengths below one 4-lane group, exact
// multiples of 4/8, and ragged tails.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 31, 33, 64, 101};

// Bitwise comparison of float or double vectors: NaNs and signed zeros
// must match exactly.
template <typename T>
::testing::AssertionResult BitsEqual(const std::vector<T>& a,
                                     const std::vector<T>& b) {
  using Bits = std::conditional_t<sizeof(T) == 8, uint64_t, uint32_t>;
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<Bits>(a[i]) != std::bit_cast<Bits>(b[i])) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// ZigZag as the codecs define it: 0, -1, 1, -2, ... -> 0, 1, 2, 3, ...
int64_t RefUnZigZag(uint32_t u) {
  return (u & 1u) ? -static_cast<int64_t>(u >> 1) - 1
                  : static_cast<int64_t>(u >> 1);
}

TEST(SimdKernelTest, DequantizeZigZagMatchesScalar) {
  Rng rng(101);
  for (size_t n : kLengths) {
    for (size_t offset = 0; offset < 4; ++offset) {
      std::vector<uint32_t> codes(n + offset);
      for (auto& c : codes) {
        // Mix small codes with extreme ones (incl. the UINT32_MAX edge).
        const double r = rng.NextDouble();
        c = r < 0.7 ? static_cast<uint32_t>(rng.NextBelow(65536))
                    : static_cast<uint32_t>(rng.NextUint64());
      }
      const double step = rng.Uniform(1e-8, 10.0);
      std::vector<double> ref(n), got(n);
      for (size_t i = 0; i < n; ++i) {
        ref[i] = static_cast<double>(RefUnZigZag(codes[offset + i])) * step;
      }
      simd::DequantizeZigZag(codes.data() + offset, n, step, got.data());
      EXPECT_TRUE(BitsEqual(ref, got)) << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(SimdKernelTest, QuantizeZigZagMatchesScalar) {
  Rng rng(102);
  for (size_t n : kLengths) {
    for (size_t offset = 0; offset < 4; ++offset) {
      std::vector<double> v(n + offset);
      for (auto& x : v) {
        const double r = rng.NextDouble();
        if (r < 0.8) {
          x = rng.Uniform(-1000.0, 1000.0);
        } else if (r < 0.9) {
          x = rng.Uniform(-0.5, 0.5);  // ties around the rounding boundary
        } else {
          x = rng.Uniform(-1e12, 1e12);  // out of int32 range: sentinel
        }
      }
      const double step = rng.Uniform(1e-3, 2.0);
      std::vector<uint32_t> ref(n), got(n, 0x5A5A5A5Au);
      double ref_max = 0.0;
      for (size_t i = 0; i < n; ++i) {
        const double r = std::rint(v[offset + i] / step);
        ref_max = std::max(ref_max, std::fabs(r));
        if (std::fabs(r) >= 2147483648.0) {
          ref[i] = 0xFFFFFFFFu;  // ZigZag(INT32_MIN)
        } else {
          const int64_t c = static_cast<int64_t>(r);
          ref[i] = static_cast<uint32_t>(c >= 0 ? 2 * c : -2 * c - 1);
        }
      }
      const double got_max =
          simd::QuantizeZigZag(v.data() + offset, n, step, got.data());
      EXPECT_EQ(std::bit_cast<uint64_t>(ref_max),
                std::bit_cast<uint64_t>(got_max))
          << "n=" << n << " offset=" << offset;
      EXPECT_EQ(ref, got) << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(SimdKernelTest, ShiftKernelsMatchScalar) {
  Rng rng(103);
  for (size_t n : kLengths) {
    std::vector<float> in_f(n);
    std::vector<double> in_d(n);
    for (size_t i = 0; i < n; ++i) {
      in_f[i] = static_cast<float>(rng.Uniform(-1e6, 1e6));
      in_d[i] = rng.Uniform(-1e6, 1e6);
    }
    const double offset = rng.Uniform(-1e5, 1e5);
    std::vector<double> ref_d(n), got_d(n);
    std::vector<float> ref_f(n), got_f(n);
    for (size_t i = 0; i < n; ++i) {
      ref_d[i] = static_cast<double>(in_f[i]) - offset;
      ref_f[i] = static_cast<float>(in_d[i] + offset);
    }
    simd::ShiftToDouble(in_f.data(), n, offset, got_d.data());
    simd::ShiftToFloat(in_d.data(), n, offset, got_f.data());
    EXPECT_TRUE(BitsEqual(ref_d, got_d)) << "n=" << n;
    EXPECT_TRUE(BitsEqual(ref_f, got_f)) << "n=" << n;
  }
}

TEST(SimdKernelTest, MaxAbsMatchesScalarIncludingNaN) {
  EXPECT_EQ(std::bit_cast<uint32_t>(simd::MaxAbs(nullptr, 0)),
            std::bit_cast<uint32_t>(0.0f));
  Rng rng(104);
  for (size_t n : kLengths) {
    for (int with_nan = 0; with_nan < 2; ++with_nan) {
      std::vector<float> in(n);
      for (auto& x : in) x = static_cast<float>(rng.Uniform(-1e9, 1e9));
      if (with_nan && n > 2) {
        in[n / 2] = std::numeric_limits<float>::quiet_NaN();
        in[n - 1] = -std::numeric_limits<float>::infinity();
      }
      float ref = 0.0f;
      for (float x : in) {
        if (!std::isnan(x)) ref = std::max(ref, std::fabs(x));
      }
      const float got = simd::MaxAbs(in.data(), n);
      EXPECT_EQ(std::bit_cast<uint32_t>(ref), std::bit_cast<uint32_t>(got))
          << "n=" << n << " nan=" << with_nan;
      if (with_nan && n > 2) {
        EXPECT_TRUE(std::isinf(got)) << "n=" << n;
      }
    }
  }
}

TEST(SimdKernelTest, OrderedFloatMapsMatchScalarAndRoundTrip) {
  Rng rng(105);
  const uint32_t masks[] = {0xFFFFFFFFu, 0xFFFF0000u, 0xFFFFFF00u, 0x80000000u};
  for (size_t n : kLengths) {
    std::vector<float> in(n);
    for (auto& x : in) {
      // Random bit patterns, cleaned of NaN/Inf which the codec never feeds.
      uint32_t bits = static_cast<uint32_t>(rng.NextUint64());
      if ((bits & 0x7F800000u) == 0x7F800000u) bits &= ~0x00800000u;
      x = std::bit_cast<float>(bits);
    }
    // Sign-magnitude to offset binary: negatives flip every bit, positives
    // set the top bit.
    std::vector<uint32_t> ordered(n);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t u = std::bit_cast<uint32_t>(in[i]);
      ordered[i] = (u & 0x80000000u) ? ~u : (u | 0x80000000u);
    }
    for (uint32_t mask : masks) {
      std::vector<uint32_t> ref(n), got(n);
      for (size_t i = 0; i < n; ++i) ref[i] = ordered[i] & mask;
      simd::FloatToOrderedTrunc(in.data(), n, mask, got.data());
      EXPECT_EQ(ref, got) << "n=" << n << " mask=" << mask;
      std::vector<float> back(n);
      simd::OrderedToFloats(got.data(), n, back.data());
      std::vector<uint32_t> again(n);
      simd::FloatToOrderedTrunc(back.data(), n, 0xFFFFFFFFu, again.data());
      EXPECT_EQ(got, again) << "n=" << n << " mask=" << mask;
      // Full-precision mask must round-trip exactly.
      if (mask == 0xFFFFFFFFu) {
        EXPECT_TRUE(BitsEqual(in, back)) << "n=" << n;
      }
    }
  }
}

// zfp's 4-point lifting steps, applied along x, then y, then z of a 4^nd
// block; the inverse runs the axes in reverse.
void RefFwdLift(int64_t* p, size_t s) {
  int64_t x = p[0], y = p[s], z = p[2 * s], w = p[3 * s];
  x += w; x >>= 1; w -= x;
  z += y; z >>= 1; y -= z;
  x += z; x >>= 1; z -= x;
  w += y; w >>= 1; y -= w;
  w += y >> 1; y -= w >> 1;
  p[0] = x; p[s] = y; p[2 * s] = z; p[3 * s] = w;
}

void RefInvLift(int64_t* p, size_t s) {
  int64_t x = p[0], y = p[s], z = p[2 * s], w = p[3 * s];
  y += w >> 1; w -= y >> 1;
  y += w; w <<= 1; w -= y;
  z += x; x <<= 1; x -= z;
  y += z; z <<= 1; z -= y;
  w += x; x <<= 1; x -= w;
  p[0] = x; p[s] = y; p[2 * s] = z; p[3 * s] = w;
}

void RefTransform(int64_t* b, size_t nd, bool forward) {
  const size_t n = size_t{1} << (2 * nd);
  for (size_t step = 0; step < nd; ++step) {
    const size_t axis = forward ? step : nd - 1 - step;
    const size_t stride = size_t{1} << (2 * axis);
    // Every line along `axis` starts at an index whose axis digit is 0.
    for (size_t start = 0; start < n; ++start) {
      if ((start / stride) % 4 != 0) continue;
      if (forward) {
        RefFwdLift(b + start, stride);
      } else {
        RefInvLift(b + start, stride);
      }
    }
  }
}

TEST(SimdKernelTest, ZfpBlockKernelsMatchScalar) {
  Rng rng(106);
  for (size_t nd = 1; nd <= 3; ++nd) {
    const size_t n = size_t{1} << (2 * nd);  // 4^nd
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<float> in(n);
      for (auto& x : in) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
      const double scale = std::ldexp(1.0, static_cast<int>(rng.NextBelow(40)));
      std::vector<int64_t> ref(n), got(n);
      for (size_t i = 0; i < n; ++i) {
        ref[i] = static_cast<int64_t>(
            std::rint(static_cast<double>(in[i]) * scale));
      }
      simd::QuantizeFixedPoint(in.data(), n, scale, got.data());
      EXPECT_EQ(ref, got) << "nd=" << nd;

      std::vector<int64_t> ref_fwd = ref, fwd = ref;
      RefTransform(ref_fwd.data(), nd, true);
      simd::ZfpForwardTransform(fwd.data(), nd);
      EXPECT_EQ(ref_fwd, fwd) << "nd=" << nd;

      std::vector<int64_t> ref_inv = ref_fwd, inv = ref_fwd;
      RefTransform(ref_inv.data(), nd, false);
      simd::ZfpInverseTransform(inv.data(), nd);
      EXPECT_EQ(ref_inv, inv) << "nd=" << nd;
    }
  }
}

TEST(SimdKernelTest, InterpolationPredictorsMatchScalar) {
  Rng rng(107);
  const size_t pt_steps[] = {2, 4, 6, 16, 34};
  for (size_t pt_step : pt_steps) {
    for (size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5},
                         size_t{9}, size_t{17}, size_t{32}}) {
      const size_t nbr = pt_step / 2;
      const size_t lin0 = 3 * nbr + rng.NextBelow(3);
      std::vector<float> rec(lin0 + count * pt_step + 3 * nbr + 8);
      for (auto& x : rec) x = static_cast<float>(rng.Uniform(-100.0, 100.0));
      std::vector<double> ref_cubic(count), ref_linear(count);
      for (size_t i = 0; i < count; ++i) {
        const size_t p = lin0 + i * pt_step;
        double t = -1.0 / 16.0 * static_cast<double>(rec[p - 3 * nbr]);
        t = t + 9.0 / 16.0 * static_cast<double>(rec[p - nbr]);
        t = t + 9.0 / 16.0 * static_cast<double>(rec[p + nbr]);
        ref_cubic[i] = t - 1.0 / 16.0 * static_cast<double>(rec[p + 3 * nbr]);
        const float sum = rec[p - nbr] + rec[p + nbr];  // float add first
        ref_linear[i] = 0.5 * static_cast<double>(sum);
      }
      std::vector<double> got(count);
      simd::CubicPredict(rec.data(), lin0, pt_step, nbr, count, got.data());
      EXPECT_TRUE(BitsEqual(ref_cubic, got))
          << "cubic step=" << pt_step << " count=" << count;
      simd::LinearPredict(rec.data(), lin0, pt_step, nbr, count, got.data());
      EXPECT_TRUE(BitsEqual(ref_linear, got))
          << "linear step=" << pt_step << " count=" << count;
    }
  }
}

TEST(SimdKernelTest, LiftPredictContiguousMatchesScalar) {
  Rng rng(108);
  for (size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{8},
                       size_t{13}, size_t{64}, size_t{100}}) {
    for (int has_right = 0; has_right < 2; ++has_right) {
      for (int forward = 0; forward < 2; ++forward) {
        const size_t nbr = count + 3;  // caller guarantees nbr >= count
        const size_t lin0 = nbr + 2;
        std::vector<double> base(lin0 + count + nbr + 4);
        for (auto& x : base) x = rng.Uniform(-50.0, 50.0);
        std::vector<double> ref = base, got = base;
        for (size_t p = lin0; p < lin0 + count; ++p) {
          const double pred =
              has_right ? 0.5 * (base[p - nbr] + base[p + nbr]) : base[p - nbr];
          ref[p] = forward ? base[p] - pred : base[p] + pred;
        }
        simd::LiftPredictContiguous(got.data(), lin0, nbr, count,
                                    has_right != 0, forward != 0);
        EXPECT_TRUE(BitsEqual(ref, got))
            << "count=" << count << " has_right=" << has_right
            << " forward=" << forward;
      }
    }
  }
}

// Lane j sums elements j, j+4, j+8, ... in order; lanes fold as
// (l0+l2)+(l1+l3).
template <typename Term>
double RefLaneSum(size_t n, Term term) {
  double lane[4] = {};
  for (size_t i = 0; i < n; ++i) lane[i % 4] += term(i);
  return (lane[0] + lane[2]) + (lane[1] + lane[3]);
}

TEST(SimdKernelTest, PlaneKernelsMatchScalar) {
  Rng rng(109);
  for (size_t n : kLengths) {
    std::vector<float> vals(n);
    std::vector<double> cz(n), cy(n), cx(n);
    for (size_t i = 0; i < n; ++i) {
      // Magnitudes from 2^-30 to 2^30 make the sums inexact, so any other
      // summation order rounds differently.
      vals[i] = static_cast<float>(
          std::ldexp(rng.Uniform(-1.0, 1.0),
                     static_cast<int>(rng.NextBelow(61)) - 30));
      cz[i] = std::floor(rng.Uniform(-3.0, 3.0));
      cy[i] = std::floor(rng.Uniform(-3.0, 3.0));
      cx[i] = std::floor(rng.Uniform(-3.0, 3.0));
    }
    const double c0 = rng.Uniform(-10.0, 10.0);
    const double az = rng.Uniform(-5.0, 5.0);
    const double ay = rng.Uniform(-5.0, 5.0);
    const double ax = rng.Uniform(-5.0, 5.0);
    auto v = [&](size_t i) { return static_cast<double>(vals[i]); };
    const double ref_sums[7] = {
        RefLaneSum(n, [&](size_t i) { return v(i); }),
        RefLaneSum(n, [&](size_t i) { return cz[i] * v(i); }),
        RefLaneSum(n, [&](size_t i) { return cy[i] * v(i); }),
        RefLaneSum(n, [&](size_t i) { return cx[i] * v(i); }),
        RefLaneSum(n, [&](size_t i) { return cz[i] * cz[i]; }),
        RefLaneSum(n, [&](size_t i) { return cy[i] * cy[i]; }),
        RefLaneSum(n, [&](size_t i) { return cx[i] * cx[i]; }),
    };
    std::vector<double> ref_pred(n);
    for (size_t i = 0; i < n; ++i) {
      ref_pred[i] = c0 + az * cz[i] + ay * cy[i] + ax * cx[i];
    }
    const double ref_err = RefLaneSum(
        n, [&](size_t i) { return std::fabs(v(i) - ref_pred[i]); });

    double got_sums[7];
    simd::PlaneFitSums(vals.data(), cz.data(), cy.data(), cx.data(), n,
                       got_sums);
    for (int k = 0; k < 7; ++k) {
      EXPECT_EQ(std::bit_cast<uint64_t>(ref_sums[k]),
                std::bit_cast<uint64_t>(got_sums[k]))
          << "n=" << n << " k=" << k;
    }
    std::vector<double> got_pred(n);
    simd::PlanePredict(cz.data(), cy.data(), cx.data(), n, c0, az, ay, ax,
                       got_pred.data());
    EXPECT_TRUE(BitsEqual(ref_pred, got_pred)) << "n=" << n;
    const double got_err = simd::PlaneAbsErr(vals.data(), cz.data(), cy.data(),
                                             cx.data(), n, c0, az, ay, ax);
    EXPECT_EQ(std::bit_cast<uint64_t>(ref_err),
              std::bit_cast<uint64_t>(got_err))
        << "n=" << n;
  }
}

}  // namespace
}  // namespace fxrz
