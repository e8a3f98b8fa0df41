// tx.manifest.v1 — run provenance captured once at startup.
//
// The manifest answers "what exactly produced this number?": git sha and
// build type (baked in at configure time), the SIMD dispatch level actually
// selected, tx::par thread count, the bench seed, and the full TYXE_*
// environment table (tx::env) including any unrecognized TYXE_* variables
// that were set. It is
//
//   * stamped into every BENCH_*.json snapshot as a "manifest" section, so
//     scripts/bench_diff.py can refuse to compare apples to oranges (e.g. an
//     AVX2 baseline against a scalar candidate), and
//   * served live on the /manifest endpoint of the telemetry server
//     (obs/live.h).
//
// Layering: tx_obs sits below tx_tensor and tx_par, so those subsystems
// publish their fields through register_provider — a static registrar in
// simd.cpp / pool.cpp hands the manifest a callback, and capture() runs
// every callback exactly once, the first time the manifest is
// rendered (or explicitly from obs::parse_bench_flags). Binaries that do not
// link a provider's object file simply omit its fields.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace tx::obs::manifest {

/// Register a callback that publishes fields via set_field when the manifest
/// is captured. Safe to call from static initializers (registration order is
/// irrelevant; fields render sorted by key). Providers registered after
/// capture() run immediately.
void register_provider(std::function<void()> provider);

/// Set one manifest field. Normally called from provider callbacks; benches
/// also call it directly for run parameters ("seed"). Later writes to the
/// same key win.
void set_field(const std::string& key, const std::string& value);
/// Without this overload a string literal would resolve to the bool one.
inline void set_field(const std::string& key, const char* value) {
  set_field(key, std::string(value));
}
void set_field(const std::string& key, std::int64_t value);
void set_field(const std::string& key, bool value);

/// Run every registered provider once (idempotent; thread-safe). json()
/// calls this implicitly, so explicit capture is only needed to pin the
/// "captured at startup" timestamp semantics.
void capture();

/// Render the tx.manifest.v1 document. `indent` is the whitespace prefix of
/// the opening brace's *contents* (the brace itself is not indented), so the
/// result can be embedded in a larger document: json("  ") nests one level.
std::string json(const std::string& indent = "");

/// Drop all fields and providers and forget that capture() ran. Tests only —
/// the static registrars from other translation units are gone afterwards.
void reset_for_testing();

}  // namespace tx::obs::manifest
