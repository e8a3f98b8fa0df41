// A small fig1-shaped regression model shared by the memory and churn tests:
// a two-layer MLP with Gaussian weight priors and a Normal likelihood, i.e.
// the op mix (matmul, relu, broadcast, Normal log-density, optimizer updates)
// of the fig1 bench at reduced size, plus the mean-field SVI that fits it.
#pragma once

#include <memory>

#include "dist/distributions.h"
#include "infer/infer.h"
#include "ppl/ppl.h"

namespace tx::test_util {

struct MlpModel {
  Tensor x = randn(Shape{64, 32});
  Tensor y = randn(Shape{64, 16});

  void operator()() const {
    using dist::Normal;
    Tensor w1 = ppl::sample(
        "w1", std::make_shared<Normal>(zeros(Shape{32, 64}),
                                       full(Shape{32, 64}, 1.0f)));
    Tensor w2 = ppl::sample(
        "w2", std::make_shared<Normal>(zeros(Shape{64, 16}),
                                       full(Shape{64, 16}, 1.0f)));
    Tensor h = relu(matmul(x, w1));
    Tensor mu = matmul(h, w2);
    ppl::sample("obs",
                std::make_shared<Normal>(mu, full(Shape{64, 16}, 0.1f)), y);
  }
};

/// One fit's worth of state: the guide's parameters, the guide and the SVI
/// driver (Adam + single-particle mean-field ELBO). Destroying it releases
/// everything the fit allocated.
struct MlpFit {
  ppl::ParamStore store;
  std::shared_ptr<infer::AutoNormal> guide;
  std::unique_ptr<infer::SVI> svi;

  explicit MlpFit(const MlpModel& m) {
    guide = std::make_shared<infer::AutoNormal>(
        [m] { m(); }, infer::AutoNormalConfig{}, "g", &store);
    svi = std::make_unique<infer::SVI>(
        [m] { m(); }, [g = guide] { (*g)(); },
        std::make_shared<infer::Adam>(0.01),
        std::make_shared<infer::TraceMeanFieldELBO>(1), &store);
  }
};

}  // namespace tx::test_util
