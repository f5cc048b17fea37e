#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "gpusim/trace_export.hpp"

namespace perfbench {

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (rank == 0 || n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double layer_percentile(const std::vector<double>& v, double q) {
  return percentile(v, q).value_or(0.0);
}

std::uint64_t Rng::next() {
  std::uint64_t x = (state_ += 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  return lo + next() % (hi - lo + 1);
}

Decoder make_decoder(std::size_t layers, std::size_t d_model,
                     std::size_t heads, std::uint64_t weight_seed,
                     std::size_t max_context) {
  et::nn::ModelConfig mc;
  mc.num_layers = layers;
  mc.d_model = d_model;
  mc.num_heads = heads;
  mc.d_ff = 4 * d_model;
  Decoder d;
  for (std::size_t l = 0; l < layers; ++l) {
    d.layers.push_back(et::nn::make_dense_encoder_weights(mc, weight_seed + l));
  }
  d.opt = et::nn::options_for(et::nn::Pipeline::kET, mc, max_context,
                              /*causal_mask=*/true);
  return d;
}

void put_trace_overhead(const HostSamples& traced, const HostSamples& plain,
                        Outcome& out) {
  const double base = layer_percentile(plain.itl_ms, 0.5);
  out.metrics["trace.overhead_share"] =
      base > 0.0 ? layer_percentile(traced.itl_ms, 0.5) / base - 1.0 : 0.0;
}

// ---------------------------------------------------------------- ops ----

std::string_view canonical_kernel(std::string_view name) {
  if (const auto b = name.find('['); b != std::string_view::npos) {
    name = name.substr(0, b);
  }
  if (name.starts_with("gen_")) name.remove_prefix(4);
  return name;
}

std::vector<Op> ops_matching(std::string_view name) {
  const std::string_view k = canonical_kernel(name);
  const auto has = [k](std::string_view s) {
    return k.find(s) != std::string_view::npos;
  };
  // One rule per op, on the canonical name: projections are named after
  // the weight they apply (qkv / q / k / v, out, ff1 / ff2), the attention
  // core after the operator, and the norms are the residual layernorms.
  std::vector<Op> ops;
  if (k.starts_with("qkv") || k.starts_with("q_linear") ||
      k.starts_with("k_linear") || k.starts_with("v_linear")) {
    ops.push_back(Op::kQkv);
  }
  if (has("attention")) ops.push_back(Op::kAttention);
  if (k.starts_with("out_")) ops.push_back(Op::kOutProj);
  if (k.starts_with("ff1") || k.starts_with("ff2")) ops.push_back(Op::kFfn);
  if (has("layernorm")) ops.push_back(Op::kNorm);
  return ops;
}

std::optional<Op> op_for_kernel(std::string_view name) {
  const std::vector<Op> ops = ops_matching(name);
  if (ops.size() != 1) return std::nullopt;
  return ops.front();
}

void OpTable::add(const OpTable& o) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].modeled_us += o.ops[i].modeled_us;
    ops[i].bytes += o.ops[i].bytes;
    ops[i].launches += o.ops[i].launches;
  }
  unmapped += o.unmapped;
  for (const auto& n : o.unmapped_names) {
    if (std::find(unmapped_names.begin(), unmapped_names.end(), n) ==
        unmapped_names.end()) {
      unmapped_names.push_back(n);
    }
  }
}

OpTable op_table(const et::gpusim::Device& dev) {
  OpTable t;
  for (const auto& k : dev.history()) {
    if (const auto op = op_for_kernel(k.name)) {
      OpRow& r = t.ops[static_cast<std::size_t>(*op)];
      r.modeled_us += k.time_us;
      r.bytes += static_cast<double>(k.total_bytes());
      r.launches += 1.0;
    } else {
      t.unmapped += 1.0;
      const std::string n(canonical_kernel(k.name));
      if (std::find(t.unmapped_names.begin(), t.unmapped_names.end(), n) ==
          t.unmapped_names.end()) {
        t.unmapped_names.push_back(n);
      }
    }
  }
  return t;
}

double modeled_us_since(const et::gpusim::Device& dev, std::size_t from) {
  double us = 0.0;
  const auto& h = dev.history();
  for (std::size_t i = from; i < h.size(); ++i) us += h[i].time_us;
  return us;
}

void put_op_metrics(const OpTable& t, Outcome& out) {
  for (std::size_t i = 0; i < kOpNames.size(); ++i) {
    const std::string base = "op." + std::string(kOpNames[i]);
    out.metrics[base + ".modeled_us"] = t.ops[i].modeled_us;
    out.metrics[base + ".bytes"] = t.ops[i].bytes;
    out.metrics[base + ".launches"] = t.ops[i].launches;
  }
  out.metrics["op.unmapped.launches"] = t.unmapped;
  for (const auto& n : t.unmapped_names) {
    std::fprintf(stderr, "perfbench: kernel '%s' maps to no single op\n",
                 n.c_str());
  }
}

// ------------------------------------------------------------- metrics ----

void put_host_metrics(const HostSamples& s, Outcome& out) {
  if (s.tokens > 0.0) {
    out.metrics["tokens_per_s"] = median(s.pass_tokens_per_s);
  } else {
    out.fail("no tokens measured");
  }
  const auto put = [&](const char* name, const std::vector<double>& v,
                       double q) {
    if (const auto p = percentile(v, q)) {
      out.metrics[name] = *p;
    } else {
      out.fail(std::string(name) + " unsupported: only " +
               std::to_string(v.size()) + " samples");
    }
  };
  put("ttft_p50_ms", s.ttft_ms, 0.5);
  put("itl_p50_ms", s.itl_ms, 0.5);
  put("itl_p90_ms", s.itl_ms, 0.9);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so under a launcher it
  // would report the launcher's peak when that is larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// --------------------------------------------------------------- trace ----

void Tracer::record(std::string_view name, std::uint64_t request,
                    Clock::time_point t0, Clock::time_point t1, int track) {
  const auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  Span s{std::string(name), request, us(t0), us(t1), track};
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

double Tracer::total_ms(std::string_view name) const {
  std::lock_guard<std::mutex> lk(mu_);
  double us = 0.0;
  for (const auto& s : spans_) {
    if (s.name == name) us += s.t1_us - s.t0_us;
  }
  return us / 1e3;
}

std::vector<double> Tracer::self_us_per_span() const {
  // Per track, order spans by start (longer first on ties) and walk them
  // with a stack of open ancestors: a span's parent is the innermost open
  // span that contains it, and each span's duration comes off its
  // parent's self time.
  std::vector<double> self(spans_.size());
  std::vector<std::size_t> order(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    order[i] = i;
    self[i] = spans_[i].t1_us - spans_[i].t0_us;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans_[a];
    const Span& y = spans_[b];
    if (x.track != y.track) return x.track < y.track;
    if (x.t0_us != y.t0_us) return x.t0_us < y.t0_us;
    return x.t1_us > y.t1_us;
  });
  std::vector<std::size_t> open;
  int track = -1;
  for (const std::size_t i : order) {
    const Span& s = spans_[i];
    if (s.track != track) {
      open.clear();
      track = s.track;
    }
    while (!open.empty() && spans_[open.back()].t1_us <= s.t0_us) {
      open.pop_back();
    }
    if (!open.empty()) self[open.back()] -= s.t1_us - s.t0_us;
    open.push_back(i);
  }
  return self;
}

std::map<std::string, double> Tracer::self_ms() const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<double> self = self_us_per_span();
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i] / 1e3;
  }
  return by_name;
}

void Tracer::write(const std::string& path,
                   const et::gpusim::Device* modeled) const {
  std::lock_guard<std::mutex> lk(mu_);
  const std::vector<double> self = self_us_per_span();
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open trace file " + path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  f << R"json({"name":"process_name","ph":"M","pid":1,"args":{"name":"host (benchmark spans)"}})json";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << ",\n{\"name\":\"" << s.name << R"(","cat":"host","ph":"X","pid":1,"tid":)"
      << s.track << ",\"ts\":" << s.t0_us << ",\"dur\":" << (s.t1_us - s.t0_us)
      << R"(,"args":{"request":)" << s.request << ",\"self_us\":" << self[i]
      << "}}";
  }
  if (modeled != nullptr) {
    // The exporter writes a JSON array of pid-1 events on the modeled
    // clock; splice its elements in as pid 2.
    std::ostringstream ks;
    et::gpusim::write_chrome_trace(ks, *modeled, "gpusim (modeled clock)");
    std::string events = ks.str();
    const auto open = events.find('[');
    const auto close = events.rfind(']');
    if (open != std::string::npos && close != std::string::npos &&
        close > open) {
      events = events.substr(open + 1, close - open - 1);
      for (std::size_t p = 0;
           (p = events.find("\"pid\":1", p)) != std::string::npos; p += 7) {
        events[p + 6] = '2';
      }
      f << "," << events;
    }
  }
  f << "\n]}\n";
  if (!f) throw std::runtime_error("trace write failed: " + path);
}

void finish_trace(const RunArgs& args, const Tracer& tracer, double phase_s,
                  const et::gpusim::Device* modeled, Outcome& out) {
  out.metrics["trace.spans"] = static_cast<double>(tracer.size());
  const double head_ms = tracer.total_ms("embed") + tracer.total_ms("select") +
                         tracer.total_ms("on_token");
  out.metrics["nn.head_ms_share"] =
      phase_s > 0.0 ? head_ms / (phase_s * 1e3) : 0.0;
  std::filesystem::create_directories(kTraceDir);
  const std::string path = std::string(kTraceDir) + "/" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".json";
  tracer.write(path, modeled);
  std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
  std::fprintf(stderr, "perfbench: self time by span (ms):\n");
  for (const auto& [name, ms] : tracer.self_ms()) {
    std::fprintf(stderr, "  %-14s %12.3f\n", name.c_str(), ms);
  }
}

}  // namespace perfbench
