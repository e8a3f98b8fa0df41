#include "infer/svi.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "obs/obs.h"
#include "resil/fault.h"
#include "resil/guard.h"

namespace tx::infer {

SVI::SVI(Program model, Program guide, std::shared_ptr<Optimizer> optimizer,
         std::shared_ptr<ELBO> loss, ppl::ParamStore* store, Generator* gen)
    : model_(std::move(model)),
      guide_(std::move(guide)),
      optimizer_(std::move(optimizer)),
      loss_(std::move(loss)),
      store_(store ? store : &ppl::param_store()),
      gen_(gen) {
  TX_CHECK(optimizer_ != nullptr && loss_ != nullptr,
           "SVI: optimizer and loss must be non-null");
}

double SVI::step() {
  // Budget checkpoint: an exhausted budget (deadline, step cap, cancel)
  // throws guard::Cancelled before any state is touched, so a cancelled
  // step is always a clean no-op. The stall site lets fault plans wedge the
  // driver mid-run to exercise the watchdog.
  fault::check_stall("svi.step");
  guard::begin_step("svi.step");

  const bool instrument = obs::enabled() || callback_;
  const bool diag_on = obs::diag::enabled();
  const double t0 = instrument ? obs::now_seconds() : 0.0;

  std::optional<ppl::GeneratorScope> seed;
  if (gen_ != nullptr) seed.emplace(gen_);

  // Open the diag step before the loss evaluation so the
  // DiagnosticsMessenger (if attached) records the sites this step touches.
  obs::diag::svi_step_begin(steps_);

  obs::ScopedTimer step_span(
      "svi.step", obs::tracing()
                      ? obs::Event().set("step", steps_).to_json()
                      : std::string());
  // Zero stale gradients on everything currently registered.
  for (auto& [name, p] : store_->items()) p.zero_grad();
  Tensor loss = loss_->differentiable_loss(model_, guide_);
  {
    obs::ScopedTimer backward_span("svi.backward");
    loss.backward();
  }
  if (fault::armed()) {
    // Deterministic fault injection: overwrite matching gradients with NaN
    // after backward, before the optimizer consumes them.
    for (auto& [name, p] : store_->items()) {
      if (p.has_grad() && fault::poison_grad(name, steps_)) {
        auto& g = p.impl()->grad;
        std::fill(g.begin(), g.end(),
                  std::numeric_limits<float>::quiet_NaN());
      }
    }
  }
  {
    obs::ScopedTimer opt_span("svi.optimizer");
    // Lazily created params now exist; register (by name, so moment state
    // survives handle replacement) and update.
    for (auto& [name, p] : store_->items()) optimizer_->add_param(name, p);
    optimizer_->step();
  }
  const double loss_value = static_cast<double>(loss.item());
  const std::int64_t step_index = steps_++;

  double total_grad_sq = 0.0;
  if (instrument || diag_on) {
    NoGradGuard ng;
    for (const auto& [name, p] : store_->items()) {
      const Tensor g = p.grad();
      if (!g.defined()) continue;
      const double gsq = static_cast<double>(square_sum(g).item());
      total_grad_sq += gsq;
      // The extra sum(g) reduction (and its sync) is diag-only; the
      // instrument-only path stays at the single sum(square(g)).
      if (diag_on) {
        const double gsum = static_cast<double>(sum(g).item());
        // NaN propagates through both sums, so two finiteness checks cover
        // the whole gradient block.
        const bool finite = std::isfinite(gsum) && std::isfinite(gsq);
        const double n = static_cast<double>(g.numel());
        obs::diag::record_param_grad(name, n > 0 ? gsum / n : 0.0,
                                     std::sqrt(gsq), finite);
      }
    }
  }
  obs::diag::svi_step_end(loss_value, std::sqrt(total_grad_sq));
  obs::prof::on_step();

  if (instrument) {
    const double grad_sq = total_grad_sq;
    SVIStepInfo info;
    info.step = step_index;
    info.loss = loss_value;
    info.grad_norm = std::sqrt(grad_sq);
    info.seconds = obs::now_seconds() - t0;
    if (obs::enabled()) {
      auto& reg = obs::registry();
      reg.counter("svi.steps").add(1);
      reg.gauge("svi.loss").set(info.loss);
      reg.gauge("svi.grad_norm").set(info.grad_norm);
      // Log-bucketed so per-worker step timings merge exactly (obs/hist.h);
      // the heartbeat feeds the live server's /healthz staleness check.
      reg.log_histogram("svi.step_seconds").record(info.seconds);
      reg.gauge("obs.heartbeat_seconds").set(obs::now_seconds());
      if (guard::watchdog_interested()) {
        // Record where liveness was last confirmed so a later stall can be
        // blamed on the span that stopped pulsing.
        guard::note_liveness(obs::current_span_path());
      }
    }
    if (callback_) callback_(info);
  }
  return loss_value;
}

double SVI::evaluate_loss() {
  std::optional<ppl::GeneratorScope> seed;
  if (gen_ != nullptr) seed.emplace(gen_);
  NoGradGuard ng;
  return static_cast<double>(
      loss_->differentiable_loss(model_, guide_).item());
}

}  // namespace tx::infer
