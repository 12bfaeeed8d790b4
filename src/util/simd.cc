// Scalar codec kernels. See simd.h for the evaluation-order contract.
//
// This translation unit is compiled with -ffp-contract=off (see
// src/CMakeLists.txt) so the compiler cannot fuse a*b+c into an FMA on
// targets that have one: the rounding of every expression below is part
// of the archive format.

#include "src/util/simd.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace fxrz {
namespace simd {

namespace {

// Folds a 4-lane partial sum: low pair + high pair, then across.
inline double ReduceLanes4(const double l[4]) {
  return (l[0] + l[2]) + (l[1] + l[3]);
}

inline int32_t UnZigZag32(uint32_t u) {
  return static_cast<int32_t>((u >> 1) ^ (~(u & 1u) + 1u));
}

inline uint32_t FloatBitsToOrdered(uint32_t u) {
  const uint32_t s = static_cast<uint32_t>(static_cast<int32_t>(u) >> 31);
  return u ^ (s | 0x80000000u);
}

inline uint32_t OrderedToFloatBits(uint32_t o) {
  const uint32_t s = static_cast<uint32_t>(static_cast<int32_t>(o) >> 31);
  return o ^ (~s | 0x80000000u);
}

// zfp 4-point lifting (exact copies of the codec's FwdLift/InvLift).
inline void FwdLift4(int64_t* p, size_t s) {
  int64_t x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  x += w; x >>= 1; w -= x;
  z += y; z >>= 1; y -= z;
  x += z; x >>= 1; z -= x;
  w += y; w >>= 1; y -= w;
  w += y >> 1; y -= w >> 1;
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

inline void InvLift4(int64_t* p, size_t s) {
  int64_t x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  y += w >> 1; w -= y >> 1;
  y += w; w <<= 1; w -= y;
  z += x; x <<= 1; x -= z;
  y += z; z <<= 1; z -= y;
  w += x; x <<= 1; x -= w;
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

}  // namespace

void DequantizeZigZag(const uint32_t* codes, size_t n, double step,
                      double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(UnZigZag32(codes[i])) * step;
  }
}

double QuantizeZigZag(const double* v, size_t n, double step, uint32_t* out) {
  double max_code = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double r = std::rint(v[i] / step);
    max_code = std::max(max_code, std::fabs(r));
    // Out-of-range rounds become the INT32_MIN sentinel; callers reject
    // them through the returned maximum before using the codes.
    const int32_t c = std::fabs(r) < 2147483648.0 ? static_cast<int32_t>(r)
                                                  : INT32_MIN;
    const uint32_t u = static_cast<uint32_t>(c);
    out[i] = (u << 1) ^ static_cast<uint32_t>(c >> 31);
  }
  return max_code;
}

void ShiftToDouble(const float* in, size_t n, double offset, double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(in[i]) - offset;
  }
}

void ShiftToFloat(const double* in, size_t n, double offset, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(in[i] + offset);
  }
}

float MaxAbs(const float* in, size_t n) {
  float m = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    m = std::max(m, std::fabs(in[i]));  // NaN loses the comparison: skipped
  }
  return m;
}

void FloatToOrderedTrunc(const float* in, size_t n, uint32_t keep_mask,
                         uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    uint32_t u;
    std::memcpy(&u, &in[i], 4);
    out[i] = FloatBitsToOrdered(u) & keep_mask;
  }
}

void OrderedToFloats(const uint32_t* in, size_t n, float* out) {
  for (size_t i = 0; i < n; ++i) {
    const uint32_t u = OrderedToFloatBits(in[i]);
    std::memcpy(&out[i], &u, 4);
  }
}

void QuantizeFixedPoint(const float* in, size_t n, double scale,
                        int64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<int64_t>(
        std::rint(static_cast<double>(in[i]) * scale));
  }
}

void ZfpForwardTransform(int64_t* b, size_t nd) {
  const size_t n = 1ull << (2 * nd);
  if (nd >= 1) {
    for (size_t row = 0; row < n; row += 4) FwdLift4(b + row, 1);
  }
  if (nd >= 2) {
    const size_t planes = nd == 3 ? 4 : 1;
    for (size_t z = 0; z < planes; ++z) {
      for (size_t x = 0; x < 4; ++x) FwdLift4(b + z * 16 + x, 4);
    }
  }
  if (nd >= 3) {
    for (size_t y = 0; y < 4; ++y) {
      for (size_t x = 0; x < 4; ++x) FwdLift4(b + y * 4 + x, 16);
    }
  }
}

void ZfpInverseTransform(int64_t* b, size_t nd) {
  const size_t n = 1ull << (2 * nd);
  if (nd >= 3) {
    for (size_t y = 0; y < 4; ++y) {
      for (size_t x = 0; x < 4; ++x) InvLift4(b + y * 4 + x, 16);
    }
  }
  if (nd >= 2) {
    const size_t planes = nd == 3 ? 4 : 1;
    for (size_t z = 0; z < planes; ++z) {
      for (size_t x = 0; x < 4; ++x) InvLift4(b + z * 16 + x, 4);
    }
  }
  if (nd >= 1) {
    for (size_t row = 0; row < n; row += 4) InvLift4(b + row, 1);
  }
}

void CubicPredict(const float* rec, size_t lin0, size_t pt_step, size_t nbr,
                  size_t count, double* pred) {
  for (size_t i = 0; i < count; ++i) {
    const size_t p = lin0 + i * pt_step;
    pred[i] = -1.0 / 16.0 * rec[p - 3 * nbr] + 9.0 / 16.0 * rec[p - nbr] +
              9.0 / 16.0 * rec[p + nbr] - 1.0 / 16.0 * rec[p + 3 * nbr];
  }
}

void LinearPredict(const float* rec, size_t lin0, size_t pt_step, size_t nbr,
                   size_t count, double* pred) {
  for (size_t i = 0; i < count; ++i) {
    const size_t p = lin0 + i * pt_step;
    // The neighbors add in float; only the sum widens to double.
    pred[i] = 0.5 * (rec[p - nbr] + rec[p + nbr]);
  }
}

void LiftPredictContiguous(double* v, size_t lin0, size_t nbr, size_t count,
                           bool has_right, bool forward) {
  for (size_t i = 0; i < count; ++i) {
    const size_t p = lin0 + i;
    const double left = v[p - nbr];
    const double pred = has_right ? 0.5 * (left + v[p + nbr]) : left;
    if (forward) {
      v[p] -= pred;
    } else {
      v[p] += pred;
    }
  }
}

void PlaneFitSums(const float* vals, const double* cz, const double* cy,
                  const double* cx, size_t n, double sums[7]) {
  double acc[7][4] = {};
  for (size_t i = 0; i < n; ++i) {
    const size_t l = i & 3;
    const double v = vals[i];
    acc[0][l] += v;
    acc[1][l] += cz[i] * v;
    acc[2][l] += cy[i] * v;
    acc[3][l] += cx[i] * v;
    acc[4][l] += cz[i] * cz[i];
    acc[5][l] += cy[i] * cy[i];
    acc[6][l] += cx[i] * cx[i];
  }
  for (int k = 0; k < 7; ++k) sums[k] = ReduceLanes4(acc[k]);
}

void PlanePredict(const double* cz, const double* cy, const double* cx,
                  size_t n, double c0, double az, double ay, double ax,
                  double* pred) {
  for (size_t i = 0; i < n; ++i) {
    pred[i] = c0 + az * cz[i] + ay * cy[i] + ax * cx[i];
  }
}

double PlaneAbsErr(const float* vals, const double* cz, const double* cy,
                   const double* cx, size_t n, double c0, double az, double ay,
                   double ax) {
  double acc[4] = {};
  for (size_t i = 0; i < n; ++i) {
    const double p = c0 + az * cz[i] + ay * cy[i] + ax * cx[i];
    acc[i & 3] += std::fabs(static_cast<double>(vals[i]) - p);
  }
  return ReduceLanes4(acc);
}

}  // namespace simd
}  // namespace fxrz
