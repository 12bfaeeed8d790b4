// Scalar kernels for the codec hot loops; their evaluation order is part of
// the archive format.
//
// Every archive byte and every decoded float depends on how these loops
// round, so the order below is a contract, not an implementation detail
// (tests/util/simd_test.cc checks each kernel against a written-out
// reference; tests/compressors/archive_pinning_test.cc pins whole archives):
//
//  * Floating-point reductions are lane-partitioned: lane j accumulates
//    elements j, j+4, j+8, ... and the final reduce is (l0+l2)+(l1+l3).
//  * Expressions evaluate left to right exactly as written; LinearPredict
//    adds its two float neighbors in float before widening to double.
//  * simd.cc is compiled with -ffp-contract=off so the compiler cannot fuse
//    a*b+c into an FMA.
//  * Rounding uses rint() semantics (round-half-to-even, the hardware
//    default).
//
// The file and namespace keep their historical "simd" name.

#ifndef FXRZ_UTIL_SIMD_H_
#define FXRZ_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace fxrz {
namespace simd {

// ---------------------------------------------------------------------------
// Quantization / dequantization (sz, sz3, mgard).
// ---------------------------------------------------------------------------

// out[i] = UnZigZag(codes[i]) * step, as double.
void DequantizeZigZag(const uint32_t* codes, size_t n, double step,
                      double* out);

// codes[i] = ZigZag(rint(v[i] / step)). Returns max_i |rint(v[i] / step)| as
// a double so callers can validate the quantizer stayed in int32 range
// BEFORE trusting the codes (out-of-range values get a sentinel code).
double QuantizeZigZag(const double* v, size_t n, double step, uint32_t* out);

// out[i] = double(in[i]) - offset.
void ShiftToDouble(const float* in, size_t n, double offset, double* out);

// out[i] = float(in[i] + offset).
void ShiftToFloat(const double* in, size_t n, double offset, float* out);

// max_i |in[i]| over floats (0.0f for n == 0; NaN elements are skipped).
float MaxAbs(const float* in, size_t n);

// ---------------------------------------------------------------------------
// Ordered-integer float maps (fpzip).
// ---------------------------------------------------------------------------

// out[i] = FloatToOrdered(in[i]) & keep_mask (monotone sign-magnitude map).
void FloatToOrderedTrunc(const float* in, size_t n, uint32_t keep_mask,
                         uint32_t* out);

// out[i] = OrderedToFloat(in[i]).
void OrderedToFloats(const uint32_t* in, size_t n, float* out);

// ---------------------------------------------------------------------------
// zfp block kernels. Blocks are 4^d coefficients in x-fastest layout.
// ---------------------------------------------------------------------------

// out[i] = int64(rint(double(in[i]) * scale)) for the 4^nd block.
void QuantizeFixedPoint(const float* in, size_t n, double scale, int64_t* out);

// Forward / inverse 4-point lifting transform applied along every axis of a
// 4^nd block (nd in [1,3]), exactly mirroring zfp's FwdLift/InvLift order.
void ZfpForwardTransform(int64_t* block, size_t nd);
void ZfpInverseTransform(int64_t* block, size_t nd);

// ---------------------------------------------------------------------------
// Interpolation prediction (sz3). Points p_i = lin0 + i*pt_step; neighbors
// at +/- nbr (and +/- 3*nbr for cubic) in the same flat array.
// ---------------------------------------------------------------------------

// pred[i] = -1/16*rec[p-3s] + 9/16*rec[p-s] + 9/16*rec[p+s] - 1/16*rec[p+3s]
// evaluated left-to-right in double.
void CubicPredict(const float* rec, size_t lin0, size_t pt_step, size_t nbr,
                  size_t count, double* pred);

// pred[i] = 0.5 * (rec[p-s] + rec[p+s]) in double.
void LinearPredict(const float* rec, size_t lin0, size_t pt_step, size_t nbr,
                   size_t count, double* pred);

// ---------------------------------------------------------------------------
// MGARD lifting (contiguous detail runs, pt_step == 1).
// ---------------------------------------------------------------------------

// For i in [0, count): p = lin0 + i;
//   pred = has_right ? 0.5*(v[p-nbr] + v[p+nbr]) : v[p-nbr];
//   v[p] -= pred (forward) or v[p] += pred (inverse).
// Caller guarantees nbr >= count so the written run never overlaps a
// neighbor read.
void LiftPredictContiguous(double* v, size_t lin0, size_t nbr, size_t count,
                           bool has_right, bool forward);

// ---------------------------------------------------------------------------
// Regression plane fit (sz). Lane-partitioned reductions over a gathered
// block: vals[i] with centered coordinates (cz[i], cy[i], cx[i]).
// ---------------------------------------------------------------------------

// sums[0..6] = {sum v, sum cz*v, sum cy*v, sum cx*v,
//               sum cz*cz, sum cy*cy, sum cx*cx}.
void PlaneFitSums(const float* vals, const double* cz, const double* cy,
                  const double* cx, size_t n, double sums[7]);

// pred[i] = c0 + az*cz[i] + ay*cy[i] + ax*cx[i], evaluated left to right.
void PlanePredict(const double* cz, const double* cy, const double* cx,
                  size_t n, double c0, double az, double ay, double ax,
                  double* pred);

// sum_i |vals[i] - (c0 + az*cz[i] + ay*cy[i] + ax*cx[i])|, lane-partitioned.
double PlaneAbsErr(const float* vals, const double* cz, const double* cy,
                   const double* cx, size_t n, double c0, double az, double ay,
                   double ax);

}  // namespace simd
}  // namespace fxrz

#endif  // FXRZ_UTIL_SIMD_H_
