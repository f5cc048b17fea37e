// KV-cached autoregressive inference: generate() (the batch-1 run of the
// decode engine) must equal the full causal forward position by position
// for every weight layout, and its kernel profile must show the
// generation regime (context-linear attention cost, weight-bound
// linears). Also the per-layer paged KV view's append contract.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string_view>

#include "core/block_allocator.hpp"
#include "nn/batched_generation.hpp"
#include "pruning/criteria.hpp"
#include "sparse/formats.hpp"
#include "tensor/compare.hpp"
#include "tensor/random.hpp"

namespace {

using et::core::PagedKVOptions;
using et::core::PagedKVPool;
using et::tensor::MatrixF;

et::nn::ModelConfig tiny_model() {
  et::nn::ModelConfig cfg;
  cfg.num_layers = 2;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  return cfg;
}

MatrixF row_of(const MatrixF& m, std::size_t r) {
  MatrixF out(1, m.cols());
  for (std::size_t c = 0; c < m.cols(); ++c) out(0, c) = m(r, c);
  return out;
}

/// Embeds position p as row p of `x`, whatever the token: the decode
/// then sees exactly the rows the full forward does.
et::nn::EmbedFn position_embed(const MatrixF& x) {
  return [&x](std::int32_t, std::size_t pos) { return row_of(x, pos); };
}

/// Records every hidden state select() is handed; always picks token 0.
et::nn::SelectFn recording_select(std::vector<MatrixF>* hidden) {
  return [hidden](const MatrixF& h) {
    hidden->push_back(h);
    return std::int32_t{0};
  };
}

/// One generate() over `x.rows()` positions with a position-keyed embed;
/// returns the hidden state of every position, in order.
std::vector<MatrixF> generate_hidden(et::core::ExecContext& ctx,
                                     const et::nn::Model& model,
                                     const MatrixF& x) {
  std::vector<MatrixF> hidden;
  et::nn::GenerationSession session(model);
  const auto r = et::nn::generate(ctx, session, 0, x.rows(),
                                  position_embed(x),
                                  recording_select(&hidden));
  EXPECT_EQ(r.stop_reason, et::nn::StopReason::kMaxTokens);
  return hidden;
}

/// A one-layer paged KV slot for the append-contract tests: `capacity`
/// rows of k_width K and v_width V, in blocks of 2 so appends cross a block.
struct OneCache {
  PagedKVPool pool;
  et::core::PagedKVSlot& cache;
  OneCache(std::size_t capacity, std::size_t k_width, std::size_t v_width)
      : pool(1, capacity, k_width, {v_width},
             PagedKVOptions{.block_tokens = 2}),
        cache(pool.slot(pool.acquire())) {}
  /// One committed position: prepare, append, commit.
  void push(std::span<const float> k, std::span<const float> v) {
    ASSERT_TRUE(cache.prepare_append());
    cache.append(0, k, v);
    cache.commit();
  }
};

TEST(KVCache, AppendAndPrefix) {
  OneCache one(4, 3, 3);
  auto& cache = one.cache;
  EXPECT_EQ(cache.tokens(), 0u);
  const float k1[] = {1, 2, 3};
  const float v1[] = {4, 5, 6};
  one.push(k1, v1);
  one.push(v1, k1);
  one.push(k1, v1);  // third row lands in the second block
  EXPECT_EQ(cache.tokens(), 3u);
  const auto k = cache.k_prefix(0, 3);
  EXPECT_EQ(k.rows(), 3u);
  EXPECT_EQ(k(0, 2), 3.0f);
  EXPECT_EQ(k(1, 0), 4.0f);
  EXPECT_EQ(k(2, 1), 2.0f);
  EXPECT_EQ(cache.v_prefix(0, 3)(1, 2), 3.0f);
  // An appended but uncommitted row is not part of the context.
  ASSERT_TRUE(cache.prepare_append());
  cache.append(0, v1, v1);
  EXPECT_EQ(cache.tokens(), 3u);
}

TEST(KVCache, ThrowsWhenFull) {
  OneCache one(1, 2, 2);
  auto& cache = one.cache;
  const float r[] = {1, 2};
  one.push(r, r);
  EXPECT_EQ(cache.tokens(), one.pool.max_context());
  EXPECT_FALSE(cache.prepare_append());
  EXPECT_THROW(cache.append(0, r, r), std::length_error);
}

TEST(KVCache, RejectedAppendLeavesBothPlanesUntouched) {
  // Regression: every validation must precede the first write, or a
  // rejected append leaves K one row longer than V (or a row half-set).
  OneCache one(2, 3, 3);
  auto& cache = one.cache;
  const float k1[] = {1, 2, 3};
  const float v1[] = {4, 5, 6};
  const float narrow[] = {7, 8};
  one.push(k1, v1);

  ASSERT_TRUE(cache.prepare_append());
  EXPECT_THROW(cache.append(0, narrow, v1), std::invalid_argument);
  EXPECT_THROW(cache.append(0, k1, narrow), std::invalid_argument);
  EXPECT_EQ(cache.tokens(), 1u);
  const auto k = cache.k_prefix(0, 2);  // row 1: the prepared row
  const auto v = cache.v_prefix(0, 2);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(k(0, c), k1[c]);
    EXPECT_EQ(v(0, c), v1[c]);
    EXPECT_EQ(k(1, c), 0.0f) << "a rejected append half-wrote its row";
    EXPECT_EQ(v(1, c), 0.0f) << "a rejected append half-wrote its row";
  }

  // The capacity check fires before the width check touches anything.
  cache.append(0, v1, k1);
  cache.commit();
  EXPECT_THROW(cache.append(0, k1, narrow), std::length_error);
  EXPECT_EQ(cache.tokens(), 2u);
  EXPECT_EQ(cache.k_prefix(0, 2)(1, 0), 4.0f);
  EXPECT_EQ(cache.v_prefix(0, 2)(1, 0), 1.0f);
}

TEST(KVCachePool, RecyclesSlotsAndValidatesRelease) {
  PagedKVPool pool(2, /*max_context=*/4, /*k_width=*/3, {3, 3, 3},
                   PagedKVOptions{.block_tokens = 2});
  EXPECT_EQ(pool.num_slots(), 2u);
  EXPECT_EQ(pool.free_slots(), 2u);

  const std::size_t a = pool.acquire();
  const std::size_t b = pool.acquire();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_FALSE(pool.has_free());
  EXPECT_THROW((void)pool.acquire(), std::runtime_error);
  ASSERT_EQ(pool.allocator().num_layers(), 3u);

  const float r[] = {1, 2, 3};
  ASSERT_TRUE(pool.slot(a).prepare_append());
  for (std::size_t l = 0; l < 3; ++l) pool.slot(a).append(l, r, r);
  pool.slot(a).commit();
  pool.release(a);
  EXPECT_THROW(pool.release(a), std::invalid_argument);
  EXPECT_THROW(pool.release(99), std::invalid_argument);

  // Reacquiring hands back empty caches — stale context must never leak
  // between sequences.
  const std::size_t again = pool.acquire();
  EXPECT_EQ(again, a);
  EXPECT_EQ(pool.slot(again).tokens(), 0u);
  EXPECT_TRUE(pool.slot(again).table().empty());
}

/// The decoder stacks the per-position oracle runs: dense, pre-computed
/// W_VO (§3.1), condensed row-pruned W_V and tile-pruned W_Q (§4.3).
std::vector<std::pair<std::string, std::vector<et::nn::EncoderWeights>>>
layout_stacks(const et::nn::ModelConfig& model) {
  std::vector<et::nn::EncoderWeights> dense;
  for (std::size_t l = 0; l < model.num_layers; ++l) {
    dense.push_back(et::nn::make_dense_encoder_weights(model, 10 + l));
  }
  const auto dense_of = [](const et::sparse::AnyWeight& w) {
    return std::get<et::sparse::DenseWeight>(w).matrix();
  };
  auto folded = dense, condensed = dense, tiled = dense;
  const std::size_t d_k = model.d_model / model.num_heads;
  std::vector<std::uint32_t> kept;  // first half of every head's W_V rows
  for (std::size_t h = 0; h < model.num_heads; ++h) {
    for (std::size_t r = 0; r < d_k / 2; ++r) {
      kept.push_back(static_cast<std::uint32_t>(h * d_k + r));
    }
  }
  for (std::size_t l = 0; l < model.num_layers; ++l) {
    const MatrixF wv = dense_of(dense[l].attn.wv);
    folded[l].attn.vo = et::core::precompute_vo(
        wv, dense_of(dense[l].attn.wo), model.num_heads);
    condensed[l].attn.wv =
        et::sparse::RowPrunedWeight::from_kept_rows(wv, kept);
    const MatrixF wq = dense_of(dense[l].attn.wq);
    tiled[l].attn.wq = et::sparse::make_weight(
        et::sparse::PruneMethod::kTile, wq, et::pruning::tile_mask(wq, 0.5));
  }
  return {{"dense", std::move(dense)},
          {"precomputed", std::move(folded)},
          {"row-pruned condensed", std::move(condensed)},
          {"tile-pruned", std::move(tiled)}};
}

TEST(GenerationSession, MatchesFullCausalForwardPerPosition) {
  const auto model = tiny_model();
  MatrixF x(10, model.d_model);
  et::tensor::fill_normal(x, 4, 0.0f, 0.5f);

  auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 10,
                                 /*causal=*/true);
  opt.attn.precision = et::numeric::Precision::kFp32;

  for (const auto& [name, layers] : layout_stacks(model)) {
    SCOPED_TRACE(name);
    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev);
    const MatrixF full = et::nn::encoder_stack_forward(ctx, x, layers, opt);
    const auto hidden = generate_hidden(
        ctx, et::nn::Model(&layers, opt, /*max_context=*/16), x);
    ASSERT_EQ(hidden.size(), x.rows());
    for (std::size_t t = 0; t < x.rows(); ++t) {
      for (std::size_t c = 0; c < x.cols(); ++c) {
        ASSERT_NEAR(hidden[t](0, c), full(t, c), 2e-3f)
            << "position " << t << " col " << c;
      }
    }
  }
}

TEST(GenerationSession, PrimeEqualsSteps) {
  // Prefilling a prompt (positions 0..n-2 emit nothing) leaves the same
  // state as decoding those positions: the last prompt position's hidden
  // state is bit-identical either way.
  const auto model = tiny_model();
  std::vector<et::nn::EncoderWeights> layers = {
      et::nn::make_dense_encoder_weights(model, 20)};
  MatrixF prompt(6, model.d_model);
  et::tensor::fill_normal(prompt, 5, 0.0f, 0.5f);
  auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 6, true);
  opt.attn.precision = et::numeric::Precision::kFp32;

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  const et::nn::Model model_handle(&layers, opt, 8);
  et::nn::GenerationSession session(model_handle);
  std::vector<MatrixF> primed;
  et::nn::DecodeParams params;
  params.prompt_tokens = {1, 2, 3, 4, 5, 6};
  params.max_new_tokens = 1;
  params.embed = position_embed(prompt);
  params.select = recording_select(&primed);
  (void)et::nn::generate(ctx, session, params);
  ASSERT_EQ(primed.size(), 1u);

  const auto stepped = generate_hidden(ctx, model_handle, prompt);
  ASSERT_EQ(stepped.size(), prompt.rows());
  EXPECT_TRUE(allclose(primed[0], stepped.back(), 0.0, 0.0));
}

TEST(GenerationSession, StepCostGrowsLinearlyWithContext) {
  // The attention kernel's loads scale with the cache length; the linears
  // stay constant — the classic generation cost profile. One position per
  // tick of the one-slot engine generate() runs, each on a fresh
  // traffic-only device.
  const auto model = tiny_model();
  std::vector<et::nn::EncoderWeights> layers = {
      et::nn::make_dense_encoder_weights(model, 21)};
  auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 1, true);

  et::nn::BatchedGenerationScheduler sched(et::nn::Model(&layers, opt, 512),
                                           /*max_batch=*/1);
  et::nn::GenerationRequest req;
  req.max_new_tokens = 400;
  req.embed = [&](std::int32_t, std::size_t) {
    return MatrixF(1, model.d_model);
  };
  req.select = [](const MatrixF&) { return std::int32_t{0}; };
  (void)sched.submit(std::move(req));

  double early = 0.0, late = 0.0, early_ff = 0.0, late_ff = 0.0;
  for (int t = 0; t < 400; ++t) {
    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev);
    dev.set_traffic_only(true);
    sched.tick(ctx);
    const double us = dev.time_us_matching("incremental_otf_attention");
    const double ff = dev.time_us_matching("gen_ff1");
    if (t == 10) early = us, early_ff = ff;
    if (t == 390) late = us, late_ff = ff;
  }
  EXPECT_GT(late, early) << "attention cost must grow with context";
  EXPECT_EQ(late_ff, early_ff) << "linear cost must not";
}

TEST(GenerationSession, WorksWithPrunedWeights) {
  const auto model = tiny_model();
  auto w = et::nn::make_dense_encoder_weights(model, 22);
  const auto& wq = std::get<et::sparse::DenseWeight>(w.attn.wq).matrix();
  w.attn.wq = et::sparse::make_weight(et::sparse::PruneMethod::kTile, wq,
                                      et::pruning::tile_mask(wq, 0.5));
  std::vector<et::nn::EncoderWeights> layers = {std::move(w)};
  auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 1, true);
  opt.attn.precision = et::numeric::Precision::kFp32;

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  MatrixF rows(4, model.d_model);
  et::tensor::fill_normal(rows, 23, 0.0f, 0.5f);
  const auto hidden =
      generate_hidden(ctx, et::nn::Model(&layers, opt, 8), rows);
  ASSERT_EQ(hidden.size(), 4u);
  for (const MatrixF& h : hidden) {
    for (float v : h.flat()) ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_GT(dev.time_us_matching("bcsr"), 0.0);
}

TEST(Generate, StopsAtEosTokenAndKeepsTheEmission) {
  const auto model = tiny_model();
  std::vector<et::nn::EncoderWeights> layers = {
      et::nn::make_dense_encoder_weights(model, 30)};
  auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 8, true);
  opt.attn.precision = et::numeric::Precision::kFp32;

  const auto embed = [&](std::int32_t token, std::size_t) {
    MatrixF row(1, model.d_model);
    row(0, 0) = 0.1f * static_cast<float>(token);
    return row;
  };
  const auto select = [](const MatrixF&) { return std::int32_t{5}; };

  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  et::nn::GenerationSession session(et::nn::Model(&layers, opt, 8));
  const auto r =
      et::nn::generate(ctx, session, 1, 6, embed, select, /*eos_token=*/5);
  EXPECT_EQ(r.stop_reason, et::nn::StopReason::kEos);
  ASSERT_EQ(r.tokens.size(), 1u);
  EXPECT_EQ(r.tokens[0], 5);

  // A negative eos_token (the default) disables the check entirely.
  const auto full = et::nn::generate(ctx, session, 1, 6, embed, select);
  EXPECT_EQ(full.stop_reason, et::nn::StopReason::kMaxTokens);
  EXPECT_EQ(full.tokens.size(), 6u);
}

TEST(StopReason, ToStringIsDistinctForEveryEnumerator) {
  // Regression for the serving-layer extension (kCancelled /
  // kDeadlineExceeded / kRejected): every enumerator round-trips to a
  // distinct, non-placeholder string, and kStopReasonCount matches the
  // enum. to_string() is a no-default switch, so adding an enumerator
  // without a case breaks the build; adding one without bumping
  // kStopReasonCount breaks this test.
  std::set<std::string_view> names;
  for (std::size_t r = 0; r < et::nn::kStopReasonCount; ++r) {
    const auto name = et::nn::to_string(static_cast<et::nn::StopReason>(r));
    EXPECT_NE(name, "?") << "enumerator " << r << " missing a switch case";
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second)
        << "duplicate to_string value: " << name;
  }
  EXPECT_EQ(names.size(), et::nn::kStopReasonCount);
  // Spot-check the serving additions by exact spelling — these strings
  // are metric names (`stop_<reason>`) and part of the JSON contract.
  EXPECT_EQ(et::nn::to_string(et::nn::StopReason::kCancelled), "cancelled");
  EXPECT_EQ(et::nn::to_string(et::nn::StopReason::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(et::nn::to_string(et::nn::StopReason::kRejected), "rejected");
}

}  // namespace
