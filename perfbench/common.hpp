// Shared pieces of the repo benchmark (perfbench/README.md): the metric
// catalogue, the percentile helper and its ten-beyond rule, the kernel
// name -> op mapping, failed/attempted accounting, the in-memory span
// recorder, and the Outcome every workload returns.
//
// Everything here observes the library from outside: it times calls into
// public entry points and reads public counters. Nothing is instrumented
// inside src/.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "gpusim/device.hpp"
#include "nn/encoder.hpp"
#include "nn/generation.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Metric catalogue. The order and names are the output contract and must
// match BENCHMARK.json (a unit test checks that).
// ---------------------------------------------------------------------------

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Reported on every untraced run of every workload.
inline constexpr std::array<MetricDef, 7> kEndToEnd = {{
    {"setup_s", "s"},
    {"tokens_per_s", "tok/s"},
    {"ttft_p50_ms", "ms"},
    {"itl_p50_ms", "ms"},
    {"itl_p90_ms", "ms"},
    {"modeled_us_per_token", "us/tok"},
    {"peak_rss_mb", "MB"},
}};

/// Reported on every traced run of every workload; a layer the workload
/// does not exercise reads 0.
inline constexpr std::array<MetricDef, 61> kPerLayer = {{
    {"serving.tick_ms_p50", "ms"},
    {"serving.tick_ms_p90", "ms"},
    {"serving.submit_us_p50", "us"},
    {"serving.queue_wait_ticks_p50", "ticks"},
    {"serving.queue_wait_ticks_p90", "ticks"},
    {"serving.batch_occupancy", "share"},
    {"serving.ticks", "count"},
    {"serving.preemptions", "count"},
    {"serving.retries", "count"},
    {"serving.shed", "count"},
    {"serving.rejected", "count"},
    {"serving.expired", "count"},
    {"serving.modeled_ttft_p90_us", "us"},
    {"serving.modeled_slo_attainment", "share"},
    {"core.kv_bytes_reserved", "B"},
    {"core.kv_bytes_used_peak", "B"},
    {"core.kv_used_share", "share"},
    {"core.prefix_hits", "count"},
    {"core.prefix_hit_share", "share"},
    {"core.cow_splits", "count"},
    {"core.score_bytes", "B"},
    {"core.fallbacks", "count"},
    {"op.qkv.modeled_us", "us"},
    {"op.qkv.bytes", "B"},
    {"op.qkv.launches", "count"},
    {"op.attention.modeled_us", "us"},
    {"op.attention.bytes", "B"},
    {"op.attention.launches", "count"},
    {"op.out_proj.modeled_us", "us"},
    {"op.out_proj.bytes", "B"},
    {"op.out_proj.launches", "count"},
    {"op.ffn.modeled_us", "us"},
    {"op.ffn.bytes", "B"},
    {"op.ffn.launches", "count"},
    {"op.norm.modeled_us", "us"},
    {"op.norm.bytes", "B"},
    {"op.norm.launches", "count"},
    {"op.unmapped.launches", "count"},
    {"nn.prefill_ms_per_position", "ms"},
    {"nn.decode_ms_per_position", "ms"},
    {"nn.encoder_ms_per_call", "ms"},
    {"nn.head_ms_share", "share"},
    {"gpusim.launches", "count"},
    {"gpusim.host_us_per_launch", "us"},
    {"gpusim.modeled_us_per_launch", "us"},
    {"numeric.fp16_overflows", "count"},
    {"quant.model_build_ms", "ms"},
    {"net.hello_rtt_ms", "ms"},
    {"net.frames_sent", "count"},
    {"net.frames_recv", "count"},
    {"net.bytes_recv", "B"},
    {"net.rejects.queue_full", "count"},
    {"net.rejects.shed", "count"},
    {"net.rejects.bad_key", "count"},
    {"net.rejects.not_authed", "count"},
    {"net.rejects.rate_limited", "count"},
    {"net.rejects.quota_exceeded", "count"},
    {"net.rejects.unknown_model", "count"},
    {"net.rejects.draining", "count"},
    {"trace.overhead_share", "share"},
    {"trace.spans", "count"},
}};

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// Nearest-rank q-quantile (q in (0, 1)) of `samples`, or nullopt when
/// fewer than ten samples lie beyond it — the benchmark never reports a
/// percentile its sample cannot support. With n samples the rank is
/// ceil(q·n) and n − rank samples lie beyond, so the median needs 20
/// samples, p90 needs 100 and p99 needs 1000.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples,
                                               double q);

/// Deterministic 64-bit generator (splitmix64): the same seed gives the
/// same stream on every platform and standard library, unlike the
/// <random> distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [lo, hi].
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);
  /// Seeded Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[range(0, i - 1)]);
    }
  }

 private:
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// Kernel attribution.
// ---------------------------------------------------------------------------

enum class Op { kQkv, kAttention, kOutProj, kFfn, kNorm };
inline constexpr std::array<std::string_view, 5> kOpNames = {
    "qkv", "attention", "out_proj", "ffn", "norm"};

/// A kernel name without the autotuner's "[algo...]" suffix and the
/// decoder's "gen_" prefix.
[[nodiscard]] std::string_view canonical_kernel(std::string_view name);

/// Every op whose rule matches the canonical form of `name`. The rules are
/// meant to be disjoint; the unit test checks that each kernel name the
/// four workloads launch matches exactly one.
[[nodiscard]] std::vector<Op> ops_matching(std::string_view name);

/// The op a kernel belongs to, or nullopt when no rule (or more than one)
/// matches.
[[nodiscard]] std::optional<Op> op_for_kernel(std::string_view name);

struct OpRow {
  double modeled_us = 0.0;
  double bytes = 0.0;
  double launches = 0.0;
  friend bool operator==(const OpRow&, const OpRow&) = default;
};

/// Modeled time, traffic and launch count per op over a device's history,
/// plus the unmapped launch count and the distinct unmapped names.
struct OpTable {
  std::array<OpRow, 5> ops{};
  double unmapped = 0.0;
  std::vector<std::string> unmapped_names;
  friend bool operator==(const OpTable& a, const OpTable& b) {
    return a.ops == b.ops && a.unmapped == b.unmapped;
  }
  void add(const OpTable& o);
};
[[nodiscard]] OpTable op_table(const et::gpusim::Device& dev);

/// Sum of time_us over history()[from, end) — the modeled clock advance.
[[nodiscard]] double modeled_us_since(const et::gpusim::Device& dev,
                                      std::size_t from);

// ---------------------------------------------------------------------------
// Accounting.
// ---------------------------------------------------------------------------

/// A request fails unless it ran to its token budget or its EOS: every
/// reject, shed, expiry, cancellation, fault, full cache and preemption
/// limit counts against the attempted total.
[[nodiscard]] constexpr bool counts_as_failed(et::nn::StopReason r) noexcept {
  return r != et::nn::StopReason::kMaxTokens && r != et::nn::StopReason::kEos;
}

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(et::nn::StopReason r) {
    ++attempted;
    if (counts_as_failed(r)) ++failed;
  }
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's own call boundaries, kept in
// memory and written once as Chrome/Perfetto JSON.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Record a complete span. `track` is the timeline row: 0 for the
  /// driving thread, small integers for helper threads, and
  /// kRequestTrack + id for a request's own row (requests overlap, so
  /// each gets one). Thread-safe.
  void record(std::string_view name, std::uint64_t request,
              Clock::time_point t0, Clock::time_point t1, int track = 0);

  static constexpr int kRequestTrack = 1000;

  [[nodiscard]] std::size_t size() const;
  /// Total duration of every span named `name`, in ms.
  [[nodiscard]] double total_ms(std::string_view name) const;
  /// Self time (duration minus directly nested spans on the same track)
  /// summed per span name, in ms.
  [[nodiscard]] std::map<std::string, double> self_ms() const;

  /// Write the host spans (pid 1) and, when given, the device's modeled
  /// kernel timeline from gpusim::write_chrome_trace (pid 2) as one
  /// {"traceEvents": [...]} file.
  void write(const std::string& path,
             const et::gpusim::Device* modeled) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t request = 0;
    double t0_us = 0.0;
    double t1_us = 0.0;
    int track = 0;
  };
  [[nodiscard]] std::vector<double> self_us_per_span() const;

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span on the current track; a null tracer makes it free.
class Span {
 public:
  Span(Tracer* tracer, std::string_view name, std::uint64_t request = 0,
       int track = 0)
      : tracer_(tracer), name_(name), request_(request), track_(track) {
    if (tracer_ != nullptr) t0_ = Clock::now();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->record(name_, request_, t0_, Clock::now(), track_);
    }
  }

 private:
  Tracer* tracer_;
  std::string_view name_;
  std::uint64_t request_;
  int track_;
  Clock::time_point t0_{};
};

// ---------------------------------------------------------------------------
// Workload interface.
// ---------------------------------------------------------------------------

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Where a traced run writes its Chrome trace, relative to the checkout.
inline constexpr const char* kTraceDir = ".bench_build/trace";

/// Host-clock samples of one measured phase.
struct HostSamples {
  std::vector<double> ttft_ms;
  std::vector<double> itl_ms;
  /// Tokens per host second of each measured pass: tokens_per_s is their
  /// median, so one pass slowed by the host does not decide it.
  std::vector<double> pass_tokens_per_s;
  double tokens = 0.0;
  double busy_s = 0.0;

  void add_pass(double pass_tokens, double pass_s) {
    pass_tokens_per_s.push_back(pass_tokens / pass_s);
    tokens += pass_tokens;
    busy_s += pass_s;
  }
};

/// What a workload hands back to main(): the correctness verdict, the
/// failed/attempted tally and every metric it can measure, by catalogue
/// name. End-to-end names missing from `metrics` make the run fail;
/// missing per-layer names print as 0.
struct Outcome {
  bool correct = true;
  std::string error;  ///< first divergence or invalid condition
  Tally tally;
  std::map<std::string, double> metrics;

  void fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

/// Fill the host end-to-end metrics (tokens_per_s, ttft_p50_ms,
/// itl_p50_ms, itl_p90_ms) from `s`; an unsupported percentile fails the
/// outcome, naming the metric and its sample count.
void put_host_metrics(const HostSamples& s, Outcome& out);

/// Median of a small sample (setup times, per-pass rates); 0 when empty.
[[nodiscard]] double median(std::vector<double> v);

/// Every run sets its workload up this many times and reports the median
/// as setup_s, so that one slow start does not decide it.
inline constexpr int kSetupRepeats = 5;

/// Run `make` kSetupRepeats times (each result released before the next
/// is built), record the median duration as setup_s and return the last
/// result.
template <typename Make>
auto timed_setup(Make&& make, Outcome& out) {
  std::vector<double> seconds;
  decltype(make()) kept{};
  for (int i = 0; i < kSetupRepeats; ++i) {
    kept = {};
    const auto t0 = Clock::now();
    kept = make();
    seconds.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  out.metrics["setup_s"] = median(seconds);
  return kept;
}

/// A causal E.T. decoder of `layers` dense layers (d_ff = 4·d_model),
/// weights generated from `weight_seed`, and the options it runs with.
struct Decoder {
  std::vector<et::nn::EncoderWeights> layers;
  et::nn::EncoderOptions opt;
};
[[nodiscard]] Decoder make_decoder(std::size_t layers, std::size_t d_model,
                                   std::size_t heads, std::uint64_t weight_seed,
                                   std::size_t max_context);

/// trace.overhead_share: the traced half's median token gap over the
/// untraced half's, minus one.
void put_trace_overhead(const HostSamples& traced, const HostSamples& plain,
                        Outcome& out);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// A percentile for a per-layer metric: 0 when the sample cannot support
/// it (per-layer metrics are reported on every workload).
[[nodiscard]] double layer_percentile(const std::vector<double>& v, double q);

/// Set trace.spans / nn.head_ms_share and write the trace file.
void finish_trace(const RunArgs& args, const Tracer& tracer, double phase_s,
                  const et::gpusim::Device* modeled, Outcome& out);

/// Fold the op table into op.* metrics.
void put_op_metrics(const OpTable& t, Outcome& out);

// Workload entry points (one file each).
Outcome run_chat(const RunArgs& args);
Outcome run_long_context(const RunArgs& args);
Outcome run_encoder(const RunArgs& args);
Outcome run_wire(const RunArgs& args);

}  // namespace perfbench
