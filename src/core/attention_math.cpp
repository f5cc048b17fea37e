#include "core/attention_math.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cmath>
#include <limits>
#include <vector>

#include "numeric/precision.hpp"

namespace et::core::detail {

namespace {

using numeric::Precision;

/// The row computation attention_math and flash_attention_math share:
/// operand checks, the scaled Q row, one Q·Kᵀ score, the mask bound and the
/// map from a head's context columns to output columns. The two operators
/// differ only in how a row's scores meet the context operand.
struct AttentionRows {
  const tensor::MatrixF& q;
  const tensor::MatrixF& k;
  const tensor::MatrixF& context;
  const PrecomputedVO* vo;
  const std::vector<std::uint32_t>* v_kept;
  const AttentionConfig& cfg;
  /// Keys/values may come from a memory of different length
  /// (cross-attention); self-attention has kv == seq_len.
  std::size_t kv = k.rows();
  std::size_t dk = cfg.d_k();
  /// Width of one head's slice of the context operand.
  std::size_t width = vo != nullptr ? vo->kept()
                      : v_kept != nullptr
                          ? v_kept->size() / cfg.num_heads
                          : dk;
  float scale = cfg.scale();

  void check() const {
    assert(q.rows() == cfg.seq_len && q.cols() == cfg.d_model);
    assert(k.cols() == cfg.d_model);
    assert(context.rows() == kv);
    assert(vo == nullptr || v_kept == nullptr);
    assert(v_kept == nullptr || v_kept->size() % cfg.num_heads == 0);
    assert(context.cols() == cfg.num_heads * width);
  }

  /// ② the scaling operator. Reordered before the multiply it keeps every
  /// partial product within FP16 range (§3.3).
  void load_q(std::size_t i, std::size_t h, float* qrow) const {
    const float* src = q.row(i).data() + h * dk;
    for (std::size_t c = 0; c < dk; ++c) {
      qrow[c] = cfg.scale_before_multiply
                    ? numeric::round_to_storage(cfg.precision,
                                                src[c] * scale)
                    : src[c];
    }
  }

  /// ③ one entry of Q·Kᵀ, accumulated under the precision policy.
  [[nodiscard]] float score(const float* qrow, std::size_t h,
                            std::size_t j) const {
    const Precision p = cfg.precision;
    float acc = numeric::round_to_storage(
        p, numeric::dot(p, qrow, 1, k.row(j).data() + h * dk, 1, dk, 0.0f));
    if (!cfg.scale_before_multiply) {
      acc = numeric::round_to_storage(p, acc * scale);
    }
    return acc;
  }

  /// ④ keys at and past this index get no weight in row i: the causal
  /// mask (self-attention only; it is meaningless over an encoder memory)
  /// and the padding mask past the valid prefix. At least the diagonal
  /// itself always remains.
  [[nodiscard]] std::size_t key_end(std::size_t i) const {
    std::size_t end = kv;
    if (cfg.causal_mask && kv == cfg.seq_len) end = std::min(end, i + 1);
    if (cfg.valid_len > 0 && cfg.valid_len < kv) {
      end = std::min(end, cfg.valid_len);
    }
    return end;
  }

  /// Head h's slice of context row j; consecutive rows are
  /// context.cols() apart.
  [[nodiscard]] const float* ctx(std::size_t j, std::size_t h) const {
    return context.row(j).data() + h * width;
  }

  /// Write output column c of head h for row i. Dense and condensed-V
  /// columns have a single writer, so they are stored (keeping signed
  /// zeros exact; condensed V leaves zeros at pruned positions); under
  /// W_VO the heads sum into the shared output columns (⑧, Eq. 4/5).
  void store(tensor::MatrixF& out, std::size_t i, std::size_t h,
             std::size_t c, float v) const {
    if (vo != nullptr) {
      out(i, vo->kept_cols[c]) += v;
    } else {
      out(i, v_kept != nullptr ? (*v_kept)[h * width + c] : h * width + c) =
          v;
    }
  }
};

}  // namespace

tensor::MatrixF attention_math(const tensor::MatrixF& q,
                               const tensor::MatrixF& k,
                               const tensor::MatrixF& context,
                               const PrecomputedVO* vo,
                               const std::vector<std::uint32_t>* v_kept,
                               const AttentionConfig& cfg, ThreadPool* pool) {
  const AttentionRows rows{q, k, context, vo, v_kept, cfg};
  rows.check();
  const std::size_t s = cfg.seq_len;
  const std::size_t kv = rows.kv;
  const Precision p = cfg.precision;

  tensor::MatrixF out(s, cfg.d_model);

  const auto row_body = [&](std::size_t i) {
    std::vector<float> qrow(rows.dk);
    std::vector<float> scores(kv);
    for (std::size_t h = 0; h < cfg.num_heads; ++h) {
      rows.load_q(i, h, qrow.data());
      for (std::size_t j = 0; j < kv; ++j) {
        scores[j] = rows.score(qrow.data(), h, j);
      }
      std::fill(scores.begin() + static_cast<std::ptrdiff_t>(rows.key_end(i)),
                scores.end(), -std::numeric_limits<float>::infinity());
      // ⑤ softmax over the row (max-subtracted; ±inf saturations from an
      // FP16 overflow propagate into NaN/garbage exactly as on hardware).
      float mx = -std::numeric_limits<float>::infinity();
      for (std::size_t j = 0; j < kv; ++j) mx = std::max(mx, scores[j]);
      float sum = 0.0f;
      for (std::size_t j = 0; j < kv; ++j) {
        scores[j] = std::exp(scores[j] - mx);
        sum += scores[j];
      }
      const float inv = sum > 0.0f ? 1.0f / sum : 0.0f;
      for (std::size_t j = 0; j < kv; ++j) {
        scores[j] = numeric::round_to_storage(p, scores[j] * inv);
      }
      // ⑥ multiply with the context operand, one output column at a time.
      for (std::size_t c = 0; c < rows.width; ++c) {
        rows.store(out, i, h, c,
                   numeric::round_to_storage(
                       p, numeric::dot(p, scores.data(), 1, rows.ctx(0, h) + c,
                                       context.cols(), kv, 0.0f)));
      }
    }
  };

  if (pool != nullptr) {
    pool->parallel_for(s, row_body);
  } else {
    for (std::size_t i = 0; i < s; ++i) row_body(i);
  }
  return out;
}

tensor::MatrixF flash_attention_math(const tensor::MatrixF& q,
                                     const tensor::MatrixF& k,
                                     const tensor::MatrixF& context,
                                     const PrecomputedVO* vo,
                                     const std::vector<std::uint32_t>* v_kept,
                                     const AttentionConfig& cfg,
                                     ThreadPool* pool) {
  const AttentionRows rows{q, k, context, vo, v_kept, cfg};
  rows.check();
  const std::size_t s = cfg.seq_len;
  const std::size_t br = cfg.flash_block_rows;
  const std::size_t bc = cfg.flash_block_cols;
  const Precision p = cfg.precision;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  // P·V multiplicands are rounded to the policy's storage type but always
  // accumulate in FP32 (the flash kernel keeps O in FP32 registers while
  // rescaling — see the header); pure FP16 therefore shares kMixed's step.
  const Precision pv = p == Precision::kPureFp16 ? Precision::kMixed : p;

  tensor::MatrixF out(s, cfg.d_model);

  const auto tile_body = [&](std::size_t t) {
    std::vector<float> qrow(rows.dk);
    std::vector<float> block(bc);
    std::vector<float> acc(rows.width);
    const std::size_t i_end = std::min(s, (t + 1) * br);
    for (std::size_t i = t * br; i < i_end; ++i) {
      for (std::size_t h = 0; h < cfg.num_heads; ++h) {
        rows.load_q(i, h, qrow.data());
        // Fully-masked keys contribute exp(-inf) = 0, so the streaming
        // loop stops at the mask bound — the block skip a flash kernel
        // performs.
        const std::size_t kv_end = rows.key_end(i);

        float m = -kInf;   // running row max
        float l = 0.0f;    // running softmax denominator
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (std::size_t b0 = 0; b0 < kv_end; b0 += bc) {
          const std::size_t b1 = std::min(kv_end, b0 + bc);
          // One Bc-wide block of the score row.
          float bm = -kInf;
          for (std::size_t j = b0; j < b1; ++j) {
            block[j - b0] = rows.score(qrow.data(), h, j);
            bm = std::max(bm, block[j - b0]);
          }
          // ④–⑤ online softmax update: rescale the running denominator
          // and output by exp(m − m_new), then fold the block in. An
          // FP16-saturated −inf block with no prior mass contributes
          // nothing; a +inf overflow poisons ℓ and the accumulator with
          // NaN exactly as the one-shot softmax would.
          const float m_new = std::max(m, bm);
          if (m_new == -kInf) continue;
          const float corr = m == -kInf ? 0.0f : std::exp(m - m_new);
          l *= corr;
          for (float& a : acc) a *= corr;
          for (std::size_t j = b0; j < b1; ++j) {
            const float pj = std::exp(block[j - b0] - m_new);
            l += pj;
            // ⑥ fold the block's slice of the context operand in.
            numeric::axpy(pv, pj, rows.ctx(j, h), 1, acc.data(), rows.width);
          }
          m = m_new;
        }
        // Deferred 1/ℓ normalization: one rounding to storage at the end.
        const float inv = l > 0.0f ? 1.0f / l : 0.0f;
        for (std::size_t c = 0; c < rows.width; ++c) {
          rows.store(out, i, h, c, numeric::round_to_storage(p, acc[c] * inv));
        }
      }
    }
  };

  const std::size_t tiles = (s + br - 1) / br;
  if (pool != nullptr) {
    pool->parallel_for(tiles, tile_body);
  } else {
    for (std::size_t t = 0; t < tiles; ++t) tile_body(t);
  }
  return out;
}

}  // namespace et::core::detail
