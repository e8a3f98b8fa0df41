// Dense float tensor with reverse-mode automatic differentiation.
//
// Design notes:
//  * Tensors are handles (shared_ptr to TensorImpl), like torch: copying a
//    Tensor aliases the same storage and autograd state.
//  * Storage is always contiguous row-major. Views (reshape/permute/slice)
//    copy; at the scales of this library that is cheap and keeps every kernel
//    trivially correct.
//  * Autograd is a classic tape: ops attach a GradNode holding the input
//    handles and a backward closure; Tensor::backward() topologically sorts
//    the graph and accumulates gradients into each impl's grad buffer.
//  * Backward closures must never capture their own output Tensor (that would
//    create a shared_ptr cycle); capture out.detach() instead when the output
//    values are needed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/shape.h"
#include "util/common.h"
#include "util/random.h"

namespace tx {

class Tensor;

/// Autograd tape node: remembers the op's inputs and how to turn the output
/// gradient into input gradients (one slot per input; undefined Tensor for
/// non-differentiable slots).
struct GradNode {
  std::string op_name;
  std::vector<Tensor> inputs;
  std::function<std::vector<Tensor>(const Tensor& grad_out)> backward_fn;
  // Alternative backward that additionally receives the op's own output as a
  // zero-copy alias. Ops whose gradient reuses forward results register this
  // (via make_tensor_from_op_with_out) instead of capturing a detached copy
  // of the output in the closure. Exactly one of the two is set.
  std::function<std::vector<Tensor>(const Tensor& grad_out, const Tensor& out)>
      backward_with_out_fn;
};

struct TensorImpl {
  TensorImpl();
  ~TensorImpl();
  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // empty until a gradient is accumulated
  bool requires_grad = false;
  std::shared_ptr<GradNode> grad_fn;  // null for leaves

  /// Re-sync tx::obs::mem accounting with the current data/grad capacity.
  /// Every code path that resizes either buffer calls this afterwards.
  void account();

  /// Free the grad buffer and re-sync the accounting.
  void release_grad();

 private:
  std::int64_t accounted_bytes_ = 0;
};

/// Is gradient recording currently enabled (thread-local)?
bool grad_enabled();

/// RAII guard disabling gradient recording, like torch.no_grad().
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

/// RAII override of the thread-local grad-recording flag to an explicit
/// value (either direction). tx::par uses this to propagate the caller's
/// grad mode into pool worker tasks.
class GradModeScope {
 public:
  explicit GradModeScope(bool enabled);
  ~GradModeScope();
  GradModeScope(const GradModeScope&) = delete;
  GradModeScope& operator=(const GradModeScope&) = delete;

 private:
  bool previous_;
};

class Tensor {
 public:
  /// Undefined tensor (null handle). defined() is false.
  Tensor() = default;

  /// Tensor of the given shape filled with `fill`.
  explicit Tensor(Shape shape, float fill = 0.0f);

  /// Tensor adopting the given data; data.size() must equal numel(shape).
  Tensor(Shape shape, std::vector<float> data);

  static Tensor scalar(float v) { return Tensor(Shape{}, {v}); }

  /// 1-D tensor from values.
  static Tensor from_vector(std::vector<float> values);

  bool defined() const { return impl_ != nullptr; }

  const Shape& shape() const;
  std::int64_t rank() const { return static_cast<std::int64_t>(shape().size()); }
  /// Size of dimension i (negative indices count from the back).
  std::int64_t dim(std::int64_t i) const;
  std::int64_t numel() const;

  float* data();
  const float* data() const;
  std::vector<float> to_vector() const;

  /// Value of a rank-0 or single-element tensor.
  float item() const;

  /// Flat element access (row-major).
  float& at(std::int64_t flat);
  float at(std::int64_t flat) const;

  bool requires_grad() const;
  /// Mark a leaf as requiring gradient; illegal on op results.
  Tensor& set_requires_grad(bool value);
  bool is_leaf() const;

  /// True once a gradient has been accumulated for this tensor.
  bool has_grad() const;
  /// Copy of the accumulated gradient as a tensor (zeros if none yet).
  Tensor grad() const;
  /// Direct read-only access to the gradient buffer (sized 0 if none).
  const std::vector<float>& grad_buffer() const;
  void zero_grad();

  /// Run reverse-mode autodiff from this scalar tensor.
  void backward() const;

  /// New leaf tensor with copied data and no autograd history.
  Tensor detach() const;
  /// Differentiable copy (identity op on the tape).
  Tensor clone() const;

  // ---- in-place mutation (leaf tensors only; bypasses autograd). Used by
  // optimizers and parameter initialization.
  void add_(const Tensor& other, float alpha = 1.0f);
  void mul_(float s);
  void fill_(float v);
  void copy_(const Tensor& src);

  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

  // ---- convenience member forms of common free-function ops.
  Tensor reshape(Shape new_shape) const;
  Tensor flatten(std::int64_t start_dim = 0) const;
  Tensor transpose(std::int64_t a, std::int64_t b) const;
  Tensor sum() const;
  Tensor mean() const;

 private:
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  std::shared_ptr<TensorImpl> impl_;

  friend Tensor make_tensor_from_op(
      std::string op_name, Shape shape, std::vector<float> data,
      std::vector<Tensor> inputs,
      std::function<std::vector<Tensor>(const Tensor&)> backward_fn);
};

/// Core helper every op uses: build the result tensor and, if gradients are
/// enabled and any input participates in the graph, attach the tape node.
Tensor make_tensor_from_op(
    std::string op_name, Shape shape, std::vector<float> data,
    std::vector<Tensor> inputs,
    std::function<std::vector<Tensor>(const Tensor&)> backward_fn);

/// Variant whose backward receives (grad_out, out): `out` aliases the op's
/// output impl (no copy, no shared_ptr cycle — the tape node does not own
/// it). Use when the gradient is a function of the forward result, e.g.
/// y' = y for exp or y' = 1 - y^2 for tanh.
Tensor make_tensor_from_op_with_out(
    std::string op_name, Shape shape, std::vector<float> data,
    std::vector<Tensor> inputs,
    std::function<std::vector<Tensor>(const Tensor&, const Tensor&)>
        backward_fn);

// ---- factories -----------------------------------------------------------

Tensor zeros(Shape shape);
Tensor ones(Shape shape);
Tensor full(Shape shape, float v);
Tensor zeros_like(const Tensor& t);
Tensor ones_like(const Tensor& t);
/// [0, 1, ..., n-1] as floats.
Tensor arange(std::int64_t n);
Tensor linspace(float lo, float hi, std::int64_t n);
Tensor eye(std::int64_t n);

/// Standard-normal samples; uses the global generator when gen is null.
Tensor randn(Shape shape, Generator* gen = nullptr);
/// Uniform [lo, hi) samples.
Tensor rand_uniform(Shape shape, float lo = 0.0f, float hi = 1.0f,
                    Generator* gen = nullptr);
/// Integer samples in [lo, hi] stored as floats.
Tensor randint(Shape shape, std::int64_t lo, std::int64_t hi,
               Generator* gen = nullptr);
/// Random ±1 signs.
Tensor rand_sign(Shape shape, Generator* gen = nullptr);

// ---- elementwise binary (NumPy broadcasting) ------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
/// max(a, b) elementwise; gradient routes to the winning side (ties to a).
Tensor maximum(const Tensor& a, const Tensor& b);
Tensor minimum(const Tensor& a, const Tensor& b);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return div(a, b); }
inline Tensor operator+(const Tensor& a, float s) { return add(a, Tensor::scalar(s)); }
inline Tensor operator-(const Tensor& a, float s) { return sub(a, Tensor::scalar(s)); }
inline Tensor operator*(const Tensor& a, float s) { return mul(a, Tensor::scalar(s)); }
inline Tensor operator/(const Tensor& a, float s) { return div(a, Tensor::scalar(s)); }
inline Tensor operator+(float s, const Tensor& a) { return add(Tensor::scalar(s), a); }
inline Tensor operator-(float s, const Tensor& a) { return sub(Tensor::scalar(s), a); }
inline Tensor operator*(float s, const Tensor& a) { return mul(Tensor::scalar(s), a); }
inline Tensor operator/(float s, const Tensor& a) { return div(Tensor::scalar(s), a); }

// ---- elementwise unary -----------------------------------------------------

Tensor neg(const Tensor& a);
inline Tensor operator-(const Tensor& a) { return neg(a); }
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor square(const Tensor& a);
Tensor abs(const Tensor& a);
Tensor tanh(const Tensor& a);
Tensor sigmoid(const Tensor& a);
Tensor relu(const Tensor& a);
/// log(1 + exp(x)) computed stably.
Tensor softplus(const Tensor& a);
Tensor sin(const Tensor& a);
Tensor cos(const Tensor& a);
Tensor erf(const Tensor& a);
/// x^p for scalar p (x must be positive when p is non-integer).
Tensor pow_scalar(const Tensor& a, float p);
/// Clamp with gradient passing only through unclamped elements.
Tensor clamp(const Tensor& a, float lo, float hi);
Tensor clamp_min(const Tensor& a, float lo);
Tensor clamp_max(const Tensor& a, float hi);

// ---- fused single-pass kernels ---------------------------------------------

/// Elementwise a*b + c with NumPy broadcasting in one pass (multiply and add
/// round separately — not a hardware FMA — so the result is bitwise equal to
/// add(mul(a, b), c)). Collapses the rsample/leapfrog mul+add chains.
Tensor fma(const Tensor& a, const Tensor& b, const Tensor& c);
/// sum(square(a)) as a rank-0 tensor in one pass (canonical order-fixed
/// reduction; bitwise-invariant to thread count and SIMD level).
Tensor square_sum(const Tensor& a);
/// Sum of elementwise Normal(loc, scale) log-densities of `value` in one
/// pass; loc/scale broadcast to value's shape. The fused ELBO/leapfrog
/// log_prob_sum kernel.
Tensor gauss_logpdf_sum(const Tensor& value, const Tensor& loc,
                        const Tensor& scale);

// ---- reductions ------------------------------------------------------------

/// Sum of all elements (rank-0 result).
Tensor sum(const Tensor& a);
/// Sum over the given axes.
Tensor sum(const Tensor& a, const std::vector<std::int64_t>& axes,
           bool keepdim = false);
Tensor mean(const Tensor& a);
Tensor mean(const Tensor& a, const std::vector<std::int64_t>& axes,
            bool keepdim = false);
/// Max over one axis. Gradient flows to the (first) argmax element.
Tensor max(const Tensor& a, std::int64_t axis, bool keepdim = false);
Tensor min(const Tensor& a, std::int64_t axis, bool keepdim = false);
/// Stable log-sum-exp over one axis.
Tensor logsumexp(const Tensor& a, std::int64_t axis, bool keepdim = false);
Tensor softmax(const Tensor& a, std::int64_t axis = -1);
Tensor log_softmax(const Tensor& a, std::int64_t axis = -1);
/// Inclusive cumulative sum along an axis.
Tensor cumsum(const Tensor& a, std::int64_t axis);

/// Argmax indices along an axis (no gradient; float-encoded indices).
Tensor argmax(const Tensor& a, std::int64_t axis);

// ---- shape ops -------------------------------------------------------------

Tensor reshape(const Tensor& a, Shape new_shape);
Tensor permute(const Tensor& a, const std::vector<std::int64_t>& dims);
Tensor transpose(const Tensor& a, std::int64_t d0, std::int64_t d1);
/// Materialized broadcast; backward sums over broadcast dims.
Tensor broadcast_to(const Tensor& a, const Shape& target);
/// Reduce-sum a down to `target` (inverse of broadcast_to).
Tensor sum_to(const Tensor& a, const Shape& target);
Tensor cat(const std::vector<Tensor>& parts, std::int64_t axis);
Tensor stack(const std::vector<Tensor>& parts, std::int64_t axis = 0);
/// Contiguous sub-range [start, end) along an axis.
Tensor slice(const Tensor& a, std::int64_t axis, std::int64_t start,
             std::int64_t end);
/// Rows (or general axis entries) selected by integer indices; repeats allowed.
Tensor index_select(const Tensor& a, std::int64_t axis,
                    const std::vector<std::int64_t>& indices);
/// out[i, :] pattern: picks a[i..., index[i...]] along the last axis.
/// `index` holds float-encoded integers and is not differentiated.
Tensor gather_last(const Tensor& a, const Tensor& index);
/// One-hot encoding of float-encoded integer labels; result shape + [depth].
Tensor one_hot(const Tensor& labels, std::int64_t depth);

// ---- linear algebra ---------------------------------------------------------

/// 2-D matrix product (M,K) x (K,N) -> (M,N).
Tensor matmul(const Tensor& a, const Tensor& b);
/// Batched matmul (B,M,K) x (B,K,N) -> (B,M,N).
Tensor bmm(const Tensor& a, const Tensor& b);
/// x (N,I) times weight (O,I) transposed, plus optional bias (O): the
/// torch F.linear contract.
Tensor linear(const Tensor& x, const Tensor& weight, const Tensor& bias);

// ---- convolution / pooling ---------------------------------------------------

/// NCHW conv2d with square stride/padding; weight (OC, IC, KH, KW),
/// optional bias (OC).
Tensor conv2d(const Tensor& x, const Tensor& weight, const Tensor& bias,
              std::int64_t stride = 1, std::int64_t padding = 0);
Tensor max_pool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride);
Tensor avg_pool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride);

// ---- small dense SPD linear algebra -------------------------------------------

/// log|A| of a symmetric positive-definite matrix (differentiable).
Tensor logdet_spd(const Tensor& a);
/// A^{-1} of a symmetric positive-definite matrix (differentiable).
Tensor inverse_spd(const Tensor& a);

// ---- comparisons / misc (no gradients) ---------------------------------------

/// Elementwise a == b within tolerance, as 0/1 floats (no broadcast).
Tensor isclose(const Tensor& a, const Tensor& b, float atol = 1e-5f);
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);
std::string to_string(const Tensor& t, std::int64_t max_elems = 32);

}  // namespace tx
