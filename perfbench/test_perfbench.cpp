// Unit tests of the benchmark's own logic: the percentile helper and its
// ten-beyond rule, the kernel name -> op mapping over every kernel the four
// workloads launch, the failed/attempted accounting, and the agreement of
// the metric catalogue with BENCHMARK.json.
//
//   cmake --build .bench_build --target perfbench_tests && .bench_build/perfbench_tests
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common.hpp"

namespace {

using perfbench::Op;

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;  // descending, so the helper must order it itself
}

TEST(Percentile, NearestRankOverUnsortedInput) {
  EXPECT_EQ(perfbench::percentile(iota(20), 0.5), 10.0);
  EXPECT_EQ(perfbench::percentile(iota(100), 0.9), 90.0);
  EXPECT_EQ(perfbench::percentile(iota(21), 0.5), 11.0);
}

TEST(Percentile, NeedsTenSamplesBeyondTheRank) {
  EXPECT_TRUE(perfbench::percentile(iota(20), 0.5).has_value());
  EXPECT_FALSE(perfbench::percentile(iota(19), 0.5).has_value());
  EXPECT_TRUE(perfbench::percentile(iota(100), 0.9).has_value());
  EXPECT_FALSE(perfbench::percentile(iota(99), 0.9).has_value());
  EXPECT_TRUE(perfbench::percentile(iota(1000), 0.99).has_value());
  EXPECT_FALSE(perfbench::percentile(iota(999), 0.99).has_value());
}

TEST(Percentile, RefusesEmptyAndDegenerateQuantiles) {
  EXPECT_FALSE(perfbench::percentile({}, 0.5).has_value());
  EXPECT_FALSE(perfbench::percentile(iota(100), 0.0).has_value());
  EXPECT_FALSE(perfbench::percentile(iota(100), 1.0).has_value());
  EXPECT_EQ(perfbench::layer_percentile(iota(99), 0.9), 0.0);
}

TEST(Percentile, UnsupportedEndToEndMetricFailsTheRun) {
  perfbench::HostSamples s;
  s.add_pass(10, 1);
  s.add_pass(30, 1);
  s.add_pass(12, 2);
  s.ttft_ms = iota(20);
  s.itl_ms = iota(99);  // enough for p50, one short for p90
  perfbench::Outcome out;
  perfbench::put_host_metrics(s, out);
  EXPECT_FALSE(out.correct);
  EXPECT_NE(out.error.find("itl_p90_ms"), std::string::npos);
  EXPECT_EQ(out.metrics.count("itl_p90_ms"), 0u);
  EXPECT_EQ(out.metrics.at("itl_p50_ms"), 50.0);
  EXPECT_EQ(out.metrics.at("tokens_per_s"), 10.0);  // median pass
  EXPECT_EQ(s.tokens, 52.0);
  EXPECT_EQ(s.busy_s, 4.0);
}

// Every distinct kernel name the four workloads launch (collected from
// their traced runs' modeled kernel tracks and op tables), with its op.
TEST(OpMapping, EveryWorkloadKernelMapsToExactlyOneOp) {
  const std::vector<std::pair<std::string, Op>> seen = {
      // encoder_bert, dense and attention-aware pruned
      {"qkv_linear[algo1_64x128]", Op::kQkv},
      {"q_linear.bcsr_gemm", Op::kQkv},
      {"k_linear.bcsr_gemm", Op::kQkv},
      {"v_linear.row_gemm[algo8_64x128_sk4]", Op::kQkv},
      {"flash_attention", Op::kAttention},
      {"out_linear.dense[algo6_128x128_sk4]", Op::kOutProj},
      {"out_linear.bcsr_gemm", Op::kOutProj},
      {"ff1.dense[algo1_64x128]", Op::kFfn},
      {"ff2.dense[algo8_64x128_sk4]", Op::kFfn},
      {"ff1.bcsr_gemm", Op::kFfn},
      {"ff2.bcsr_gemm", Op::kFfn},
      {"residual_layernorm1", Op::kNorm},
      {"residual_layernorm2", Op::kNorm},
      {"out_linear.dense[algo2_128x64]", Op::kOutProj},
      // chat_fp16 (batched fused tick)
      {"gen_qkv_batched[algo0_64x64x3]", Op::kQkv},
      {"incremental_otf_attention", Op::kAttention},
      {"gen_out_linear.dense[algo0_64x64]", Op::kOutProj},
      {"gen_ff1.dense[algo4_128x256]", Op::kFfn},
      {"gen_ff2.dense[algo0_64x64]", Op::kFfn},
      {"gen_residual_layernorm1", Op::kNorm},
      {"gen_residual_layernorm2", Op::kNorm},
      // long_context (batch-1 session)
      {"gen_q_linear.dense[algo0_64x64]", Op::kQkv},
      {"gen_k_linear.dense[algo0_64x64]", Op::kQkv},
      {"gen_v_linear.dense[algo0_64x64]", Op::kQkv},
      {"gen_ff1.dense[algo1_64x128]", Op::kFfn},
      // wire_int8 (INT8 GEMMs)
      {"gen_qkv_int8[x3]", Op::kQkv},
      {"gen_out_int8", Op::kOutProj},
      {"gen_ff1_int8", Op::kFfn},
      {"gen_ff2_int8", Op::kFfn},
  };
  for (const auto& [name, op] : seen) {
    EXPECT_EQ(perfbench::ops_matching(name).size(), 1u) << name;
    EXPECT_EQ(perfbench::op_for_kernel(name), op) << name;
  }
}

TEST(OpMapping, StripsAutotunerSuffixAndDecoderPrefix) {
  EXPECT_EQ(perfbench::canonical_kernel("gen_ff1.dense[algo1_64x128]"),
            "ff1.dense");
  EXPECT_EQ(perfbench::canonical_kernel("residual_layernorm1"),
            "residual_layernorm1");
  EXPECT_FALSE(perfbench::op_for_kernel("mystery_kernel").has_value());
}

TEST(Accounting, OnlyBudgetAndEosCountAsSuccess) {
  using et::nn::StopReason;
  perfbench::Tally t;
  for (std::size_t i = 0; i < et::nn::kStopReasonCount; ++i) {
    t.add(static_cast<StopReason>(i));
  }
  EXPECT_EQ(t.attempted, et::nn::kStopReasonCount);
  EXPECT_EQ(t.failed, et::nn::kStopReasonCount - 2);
  EXPECT_FALSE(perfbench::counts_as_failed(StopReason::kMaxTokens));
  EXPECT_FALSE(perfbench::counts_as_failed(StopReason::kEos));
  EXPECT_TRUE(perfbench::counts_as_failed(StopReason::kRejected));
  EXPECT_TRUE(perfbench::counts_as_failed(StopReason::kDeadlineExceeded));
  EXPECT_TRUE(perfbench::counts_as_failed(StopReason::kPreemptionLimit));
  EXPECT_TRUE(perfbench::counts_as_failed(StopReason::kKernelFault));
}

TEST(Outcome, FirstFailureIsKept) {
  perfbench::Outcome out;
  out.fail("first");
  out.fail("second");
  EXPECT_FALSE(out.correct);
  EXPECT_EQ(out.error, "first");
}

TEST(Tracer, SelfTimeSubtractsDirectChildrenOnTheSameTrack) {
  perfbench::Tracer tr;
  const auto t = perfbench::Clock::now();
  const auto ms = [t](int n) { return t + std::chrono::milliseconds(n); };
  tr.record("tick", 1, ms(0), ms(10));
  tr.record("embed", 1, ms(1), ms(3));
  tr.record("select", 1, ms(4), ms(5));
  tr.record("inner", 1, ms(1), ms(2));      // child of embed
  tr.record("other", 2, ms(0), ms(10), 7);  // another track
  const auto self = tr.self_ms();
  EXPECT_NEAR(self.at("tick"), 7.0, 1e-9);
  EXPECT_NEAR(self.at("embed"), 1.0, 1e-9);
  EXPECT_NEAR(self.at("inner"), 1.0, 1e-9);
  EXPECT_NEAR(self.at("other"), 10.0, 1e-9);
  EXPECT_NEAR(tr.total_ms("embed"), 2.0, 1e-9);
}

TEST(Manifest, CatalogueMatchesBenchmarkJson) {
  std::ifstream f(PERFBENCH_MANIFEST);
  ASSERT_TRUE(f) << PERFBENCH_MANIFEST;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string json = ss.str();
  const auto section = [&](const std::string& key) {
    const auto b = json.find("\"" + key + "\"");
    EXPECT_NE(b, std::string::npos) << key;
    return json.substr(b, json.find(']', b) - b);
  };
  const auto check = [&](const std::string& key, const auto& defs) {
    const std::string s = section(key);
    std::size_t names = 0;
    for (std::size_t p = 0; (p = s.find("\"name\"", p)) != std::string::npos;
         ++p) {
      ++names;
    }
    EXPECT_EQ(names, defs.size()) << key;
    for (const auto& d : defs) {
      const std::string entry = "\"name\": \"" + std::string(d.name) +
                                "\", \"unit\": \"" + std::string(d.unit) + "\"";
      EXPECT_NE(s.find(entry), std::string::npos) << key << ": " << entry;
    }
  };
  check("end_to_end", perfbench::kEndToEnd);
  check("per_layer", perfbench::kPerLayer);
}

}  // namespace
