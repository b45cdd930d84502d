// Tensor operations: GEMM, convolution, elementwise arithmetic, reductions, softmax.
//
// All ops take explicit output tensors (resized as needed) so callers control allocation
// and the training runtime can reuse buffers across minibatches.
//
// Two kernel layers share this API. The default implementations (ops.cc) are cache-blocked,
// register-tiled, and parallelized over the shared thread pool (src/common/thread_pool.h);
// the naive seed implementations survive in ref_ops.h as the differential-test oracle and
// as a runtime escape hatch (PIPEDREAM_NAIVE_KERNELS=1). Both layers are deterministic:
// results never depend on thread count or scheduling, only on shapes and inputs, so the
// pipeline-vs-oracle equivalence tests can keep demanding bitwise-equal weights.
#ifndef SRC_TENSOR_OPS_H_
#define SRC_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace pipedream {

// True when ops dispatch to the naive reference kernels: PIPEDREAM_NAIVE_KERNELS=1 in the
// environment (read once) or an explicit SetNaiveKernelsForTesting(true).
bool UseNaiveKernels();
// Test hook overriding the environment switch for the current process.
void SetNaiveKernelsForTesting(bool naive);

// Which GEMM/conv kernel implementation ops dispatch to. kNaive is the ref:: oracle,
// kBlocked the cache-blocked compiler-vectorized kernel, kSimd the explicit-SIMD
// register-tiled micro-kernel (AVX-512 or AVX2/FMA intrinsics when the build targets
// them, a restrict-qualified scalar micro-kernel otherwise).
enum class KernelVariant : int { kNaive = 0, kBlocked = 1, kSimd = 2 };

// Resolves the variant for the current process, in precedence order:
// SetNaiveKernelsForTesting(true), SetKernelVariantForTesting, PIPEDREAM_NAIVE_KERNELS=1
// (read once), then the best variant this build supports (simd when compiled for a vector
// ISA, blocked otherwise).
KernelVariant ActiveKernelVariant();
// Test hook pinning the variant for the current process (overrides the environment).
void SetKernelVariantForTesting(KernelVariant v);
// Reverts SetKernelVariantForTesting back to the default dispatch.
void ClearKernelVariantForTesting();
// "naive" | "blocked" | "simd".
const char* KernelVariantName(KernelVariant v);
// Instruction set the simd variant's micro-kernel was compiled for: "avx512", "avx2", or
// "scalar" (the restrict-qualified fallback when the build targets no vector ISA).
const char* SimdKernelIsa();
// Measures the in-cache GFLOP/s of a variant's register-tile micro-kernel (packed panels
// resident in L1, best observed rate over >= min_seconds of sampling). This is the compute
// roofline the GEMM macro loop runs under; bench_micro_kernels reports full-GEMM rates
// against it. The naive variant has no micro-kernel and is not a valid argument.
double MicroKernelPeakGflops(KernelVariant v, double min_seconds = 0.05);

// out = alpha * op(a) @ op(b) + beta * out, where op transposes when the flag is set.
// Shapes: op(a) is [m, k], op(b) is [k, n], out is [m, n]. When beta == 0 the previous
// contents of out are ignored (out is resized to [m, n]).
void Gemm(const Tensor& a, bool transpose_a, const Tensor& b, bool transpose_b, float alpha,
          float beta, Tensor* out);

// out = a @ b, convenience wrapper over Gemm with alpha=1, beta=0.
void MatMul(const Tensor& a, const Tensor& b, Tensor* out);

// NCHW convolution geometry shared by the forward and backward kernels.
struct ConvGeometry {
  int64_t batch = 0;
  int64_t in_channels = 0;
  int64_t in_h = 0;
  int64_t in_w = 0;
  int64_t out_channels = 0;
  int64_t kernel = 0;
  int64_t stride = 1;
  int64_t padding = 0;

  int64_t out_h() const { return (in_h + 2 * padding - kernel) / stride + 1; }
  int64_t out_w() const { return (in_w + 2 * padding - kernel) / stride + 1; }
  // Validates shapes of the operands against this geometry.
  void Check(const Tensor& input, const Tensor& weight, const Tensor& bias) const;
};

// out[n,oc,oh,ow] = bias[oc] + sum_{ic,kh,kw} input[n,ic,...] * weight[oc,ic,kh,kw].
// input is [N, IC, H, W], weight [OC, IC, K, K], bias [OC]. The default implementations
// lower by geometry: stride 1 with padding < kernel runs a direct convolution on a
// zero-padded copy of each sample; every other geometry unfolds each sample via im2col
// onto the packed GEMM.
void Conv2dForward(const Tensor& input, const Tensor& weight, const Tensor& bias,
                   const ConvGeometry& g, Tensor* out);

// Accumulates grad_weight / grad_bias (+=, caller zeroes between steps, matching Parameter
// semantics) and overwrites grad_input. Sums over samples run in batch order.
void Conv2dBackward(const Tensor& input, const Tensor& weight, const Tensor& grad_output,
                    const ConvGeometry& g, Tensor* grad_weight, Tensor* grad_bias,
                    Tensor* grad_input);

// out = input > 0 ? input : 0 elementwise, so NaN and -0.0 both become +0.0. out is
// replaced by a fresh tensor.
void Relu(const Tensor& input, Tensor* out);
// grad_input = output > 0 ? grad_output : 0, where output is Relu's result.
void ReluBackward(const Tensor& output, const Tensor& grad_output, Tensor* grad_input);

// Max pooling of an NCHW input over window x window patches at the given stride (no
// padding). argmax receives, per output element, the window-local offset kh * window + kw
// of the first maximum in row-major order, as a float. Both outputs are fresh tensors.
void MaxPool2dForward(const Tensor& input, int64_t window, int64_t stride, Tensor* out,
                      Tensor* argmax);
// Scatter-adds grad_output through MaxPool2dForward's argmax into a fresh zeroed
// grad_input of input_shape.
void MaxPool2dBackward(const Tensor& grad_output, const Tensor& argmax, int64_t window,
                       int64_t stride, const std::vector<int64_t>& input_shape,
                       Tensor* grad_input);

// Elementwise out = a + b (shapes must match).
void Add(const Tensor& a, const Tensor& b, Tensor* out);
// Elementwise a += b.
void AddInPlace(Tensor* a, const Tensor& b);
// a += alpha * b (axpy).
void Axpy(float alpha, const Tensor& b, Tensor* a);
// Elementwise out = a - b.
void Sub(const Tensor& a, const Tensor& b, Tensor* out);
// Elementwise out = a * b (Hadamard).
void Mul(const Tensor& a, const Tensor& b, Tensor* out);
// Elementwise a *= scalar.
void Scale(Tensor* a, float scalar);

// Adds a length-n bias row to every row of a [m, n] matrix.
void AddBiasRows(Tensor* matrix, const Tensor& bias);
// Accumulates column sums of a [m, n] matrix into a length-n vector: bias_grad += colsum.
void AccumulateColumnSums(const Tensor& matrix, Tensor* bias_grad);

// Sum of all elements.
double Sum(const Tensor& a);
// L2 norm of all elements.
double Norm(const Tensor& a);
// Index of the maximum element in row r of a rank-2 tensor.
int64_t ArgMaxRow(const Tensor& a, int64_t r);

// Row-wise softmax of a [m, n] matrix.
void SoftmaxRows(const Tensor& logits, Tensor* probs);

// Maximum absolute elementwise difference between two same-shaped tensors.
double MaxAbsDiff(const Tensor& a, const Tensor& b);

}  // namespace pipedream

#endif  // SRC_TENSOR_OPS_H_
