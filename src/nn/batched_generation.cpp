#include "nn/batched_generation.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/attention_math.hpp"
#include "kernels/gemm.hpp"
#include "kernels/linear.hpp"
#include "nn/layer_tail.hpp"
#include "quant/quantize.hpp"

namespace et::nn {

namespace {

/// Per-sequence state threaded through one tick. `pos` is the context
/// position the tick decodes: the slot's prepared, uncommitted KV row.
/// fused_step commits it only once the whole step succeeded, so a fault
/// anywhere in the step leaves nothing to undo.
struct TickSlot {
  enum class State { kRunning, kOk, kKernelFault };

  std::size_t pool_slot = 0;
  std::size_t request_id = 0;
  core::PagedKVSlot* kv = nullptr;
  std::size_t pos = 0;

  State state = State::kRunning;
  std::string fault_kernel;
  tensor::MatrixF hidden;  // 1 × d_model when state == kOk
};

/// The input token for context position `pos`: a prompt position embeds
/// the prompt token, everything after embeds the emission stream (which
/// replay re-fills, so a resumed request derives identical inputs).
std::int32_t input_token(const GenerationRequest& req,
                         const std::vector<std::int32_t>& emitted,
                         std::size_t pos) {
  const std::vector<std::int32_t>& pt = req.prompt_tokens;
  const std::size_t n = pt.empty() ? 1 : pt.size();
  if (pos < n) return pt.empty() ? req.first_token : pt[pos];
  return emitted.at(pos - n);
}

/// One fused decode step for every sequence in `live` (rows(i) is
/// live[i]'s embedded input). Each shared kernel is row-wise
/// independent, so every sequence's output is bit-identical to the same
/// step run alone (a batch of one). Under Model's kInt8 descriptor
/// every projection/FF GEMM swaps to quant::int8_linear, whose per-ROW
/// activation scales keep that row-wise independence exactly (a stacked
/// row quantizes as it would alone). Slot-attributed faults retire
/// only the owning slot (its row dropped, its position never committed);
/// faults in shared kernels propagate to the caller, which degrades the
/// tick to per-slot stepping. The survivors' positions are committed at
/// the end, so no partial step is ever visible.
void fused_step(core::ExecContext& ctx, const Model& model,
                core::KvPrecision kv_precision, std::vector<TickSlot*> live,
                tensor::MatrixF rows) {
  gpusim::Device& dev = ctx.device();
  const std::vector<EncoderWeights>& layers = model.layers();
  const EncoderOptions& opt = model.options();
  const bool int8 = model.quantized();
  const auto p = opt.attn.precision;
  const std::size_t d = opt.attn.d_model;
  const std::size_t sb = numeric::storage_bytes(p);
  kernels::LinearOptions lopt;
  lopt.precision = p;

  tensor::MatrixF h = std::move(rows);
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const EncoderWeights& w = layers[l];

    // Shared: the whole batch's q/k/v projections, in the layout the caches
    // store (docs/attention.md "Weight layouts in the decode path"): the m =
    // x·W_VOᵀ row under the pre-computed fold (§3.1), the condensed v of a
    // condensable row-pruned W_V (§4.3), or a full-width dense v row. Dense
    // W_Q/W_K fuse with a dense third panel into ONE batched GEMM (the A
    // strips — the stacked hidden rows — staged once for all panels). That
    // panel is W_VO under the fold, so the projection directly emits the
    // condensed m rows, and a dense W_V otherwise. Pruned formats keep
    // their specialized kernels, still amortized across the batch by
    // stacking.
    tensor::MatrixF q, k_new, v_new;
    const core::PrecomputedVO* vo =
        w.attn.has_precomputed() ? &w.attn.vo : nullptr;
    std::vector<std::uint32_t> v_kept;
    const QuantizedLayer* ql = int8 ? &model.quantized_layer(l) : nullptr;
    const auto* dq = std::get_if<sparse::DenseWeight>(&w.attn.wq);
    const auto* dk = std::get_if<sparse::DenseWeight>(&w.attn.wk);
    const auto* dv = std::get_if<sparse::DenseWeight>(&w.attn.wv);
    const tensor::MatrixF* v_panel =
        vo != nullptr   ? &vo->weight
        : dv != nullptr ? &dv->matrix()
                        : nullptr;
    if (int8) {
      // INT8 keeps the same three-way V split, fused into ONE launch
      // like the dense batched projection (decode is launch-bound —
      // three separate launches would hand the fp16 path back its
      // win). The fold's metadata (kept/heads) still reads the fp
      // W_VO while the GEMM operand is the quantized one.
      auto qkv = quant::int8_batched_linear(
          ctx, h, {&ql->wq, &ql->wk, vo != nullptr ? &ql->vo : &ql->wv},
          "gen_qkv_int8");
      q = std::move(qkv[0]);
      k_new = std::move(qkv[1]);
      v_new = std::move(qkv[2]);
    } else if (dq != nullptr && dk != nullptr && v_panel != nullptr) {
      auto qkv = kernels::batched_gemm_nt(
          ctx, h, {&dq->matrix(), &dk->matrix(), v_panel}, p, nullptr,
          "gen_qkv_batched");
      q = std::move(qkv[0]);
      k_new = std::move(qkv[1]);
      v_new = std::move(qkv[2]);
    } else if (vo != nullptr) {
      q = kernels::linear(ctx, h, w.attn.wq, lopt, "gen_q_linear").y;
      k_new = kernels::linear(ctx, h, w.attn.wk, lopt, "gen_k_linear").y;
      v_new = kernels::gemm_nt(ctx, h, vo->weight, p, nullptr,
                               "gen_vo_linear");
    } else if (w.attn.v_condensable(opt.attn.num_heads)) {
      q = kernels::linear(ctx, h, w.attn.wq, lopt, "gen_q_linear").y;
      k_new = kernels::linear(ctx, h, w.attn.wk, lopt, "gen_k_linear").y;
      kernels::LinearOptions vopt = lopt;
      vopt.scatter_row_pruned_output = false;
      auto res = kernels::linear(ctx, h, w.attn.wv, vopt, "gen_v_linear");
      v_new = std::move(res.y);
      v_kept = std::move(res.nonzero_cols);
    } else {
      q = kernels::linear(ctx, h, w.attn.wq, lopt, "gen_q_linear").y;
      k_new = kernels::linear(ctx, h, w.attn.wk, lopt, "gen_k_linear").y;
      v_new = kernels::linear(ctx, h, w.attn.wv, lopt, "gen_v_linear").y;
    }
    const std::vector<std::uint32_t>* v_kept_ptr =
        int8 ? (ql->v_kept.empty() ? nullptr : &ql->v_kept)
             : (v_kept.empty() ? nullptr : &v_kept);
    const std::size_t vw = v_new.cols();  // V-plane width actually cached

    // Per slot — the incremental attention step: append this token's K/V row
    // and attend over the slot's own cache, a 1-row OTF instance per sequence
    // whose score row stays in shared memory. Launches here carry the slot
    // id, so a fault is attributable: only the owning slot retires. Slots are
    // independent (own cache, own output row, own dead flag), so this loop
    // runs one slot per parallel chunk; slot-attributed launches land in
    // per-chunk sinks that merge back in slot order, keeping the device log
    // bit-identical to the serial tick. A KernelFault the body handles never
    // escapes a chunk; a SharedMemOverflow does, and surfaces after the
    // merge exactly where the serial loop would have thrown it.
    tensor::MatrixF z(live.size(), d);
    std::vector<char> dead(live.size(), 0);  // char: written concurrently
    ctx.parallel_for(
        live.size(),
        [&](std::size_t b) {
          TickSlot& slot = *live[b];
          core::PagedKVSlot& kv = *slot.kv;
          gpusim::SlotScope scope(dev, static_cast<int>(slot.pool_slot));
          try {
            kv.append(l, k_new.row(b), v_new.row(b));
            const std::size_t ctx_len = slot.pos + 1;
            {
              auto launch = dev.launch(
                  {.name = "incremental_otf_attention",
                   .ctas = opt.attn.num_heads,
                   .shared_bytes_per_cta =
                       opt.attn.d_k() * numeric::accumulator_bytes(p) +
                       ctx_len * numeric::accumulator_bytes(p),
                   .pattern = gpusim::AccessPattern::kTiled});
              launch.load_bytes(d * sb);
              // Cached K/V rows: one byte per element plus two FP32
              // scales per row under an INT8 pool — the traffic the
              // halved-footprint cache actually moves.
              const std::size_t kv_row_bytes =
                  kv_precision == core::KvPrecision::kInt8
                      ? (d + vw) + 2 * sizeof(float)
                      : (d + vw) * sb;
              launch.load_bytes(ctx_len * kv_row_bytes);
              launch.store_bytes(d * sb);
              const auto ops = numeric::op_charge(
                  p, 2ull * ctx_len * (d + vw),
                  5ull * ctx_len * opt.attn.num_heads);
              launch.tensor_ops(ops.tensor_ops);
              launch.fp_ops(ops.fp_ops);
            }
            if (!dev.traffic_only()) {
              core::AttentionConfig step_cfg = opt.attn;
              step_cfg.seq_len = 1;
              step_cfg.causal_mask = false;
              const tensor::MatrixF zb = core::detail::attention_math(
                  tensor::slice_rows(q, b, 1), kv.k_prefix(l, ctx_len),
                  kv.v_prefix(l, ctx_len), vo, v_kept_ptr, step_cfg);
              for (std::size_t c = 0; c < d; ++c) z(b, c) = zb(0, c);
            }
          } catch (const gpusim::KernelFault& f) {
            slot.state = TickSlot::State::kKernelFault;
            slot.fault_kernel = f.kernel();
            dev.note_fallback({"batched_decode", "retire_slot", f.kernel(),
                               std::string(to_string(f.cause())),
                               static_cast<int>(slot.pool_slot)});
            dead[b] = 1;
          }
        },
        /*grain=*/1);
    bool any_dead = false;
    for (const char flag : dead) any_dead = any_dead || flag != 0;
    if (any_dead) {
      std::vector<TickSlot*> survivors;
      std::vector<std::size_t> keep;
      for (std::size_t b = 0; b < live.size(); ++b) {
        if (!dead[b]) {
          survivors.push_back(live[b]);
          keep.push_back(b);
        }
      }
      live = std::move(survivors);
      if (live.empty()) return;
      tensor::MatrixF h2(live.size(), d), z2(live.size(), d);
      for (std::size_t b = 0; b < keep.size(); ++b) {
        for (std::size_t c = 0; c < d; ++c) {
          h2(b, c) = h(keep[b], c);
          z2(b, c) = z(keep[b], c);
        }
      }
      h = std::move(h2);
      z = std::move(z2);
    }

    // Shared: output projection (already folded into the cached rows
    // under W_VO), then the post-attention block over the stacked
    // survivors — one launch each instead of one per sequence.
    tensor::MatrixF attn =
        vo != nullptr
            ? std::move(z)
            : (int8
                   ? quant::int8_linear(ctx, z, ql->wo, "gen_out_int8")
                   : kernels::linear(ctx, z, w.attn.wo, lopt,
                                     "gen_out_linear")
                         .y);
    h = detail::layer_tail(
        ctx, std::move(attn), h,
        detail::encoder_tail(w,
                             {"gen_residual_layernorm1", "gen_ff1",
                              "gen_ff2", "gen_residual_layernorm2"},
                             ql),
        p);
  }

  for (std::size_t b = 0; b < live.size(); ++b) {
    live[b]->kv->commit();
    live[b]->state = TickSlot::State::kOk;
    live[b]->hidden = tensor::slice_rows(h, b, 1);
  }
}

}  // namespace

namespace {
std::size_t checked_batch(std::size_t max_batch) {
  // Thrown before pool_ is constructed so the zero-batch error keeps the
  // scheduler's own message, not the pool's.
  if (max_batch == 0) {
    throw std::invalid_argument(
        "BatchedGenerationScheduler: max_batch must be nonzero");
  }
  return max_batch;
}
}  // namespace

BatchedGenerationScheduler::BatchedGenerationScheduler(const Model& model,
                                                       std::size_t max_batch,
                                                       core::PagedKVOptions kv)
    : model_(model),
      pool_(checked_batch(max_batch), model_.max_context(), model_.k_width(),
            model_.v_widths(), kv),
      slots_(max_batch) {}

std::size_t BatchedGenerationScheduler::submit(GenerationRequest req) {
  const std::size_t id = requests_.size();
  requests_.push_back(std::move(req));
  results_.emplace_back();
  completed_.push_back(false);
  if (requests_.back().max_new_tokens == 0) {
    // Nothing to decode: the empty happy path.
    results_.back().stop_reason = StopReason::kMaxTokens;
    completed_.back() = true;
  } else {
    queue_.push_back(id);
  }
  return id;
}

bool BatchedGenerationScheduler::cancel(std::size_t id, StopReason reason) {
  if (completed_.at(id)) return false;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (*it == id) {
      queue_.erase(it);
      results_[id].stop_reason = reason;
      completed_[id] = true;
      return true;
    }
  }
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].has_value() && slots_[s]->request_id == id) {
      retire(s, reason);
      return true;
    }
  }
  // Every unfinished request is either queued or in a slot.
  assert(false);
  return false;
}

std::size_t BatchedGenerationScheduler::active() const noexcept {
  std::size_t n = 0;
  for (const auto& s : slots_) n += s.has_value() ? 1 : 0;
  return n;
}

const GenerationResult& BatchedGenerationScheduler::result(
    std::size_t id) const {
  if (!completed_.at(id)) {
    throw std::logic_error("BatchedGenerationScheduler::result: request " +
                           std::to_string(id) + " has not finished");
  }
  return results_[id];
}

void BatchedGenerationScheduler::admit(std::size_t request_id) {
  const GenerationRequest& req = requests_[request_id];
  // Prompt-aware acquisition: the pool's prefix trie may seed the slot's
  // block table with another request's resident prompt blocks (refcounts
  // bumped; appends below the shared frontier skip the write).
  const std::vector<std::int32_t> prompt = req.prompt();
  const std::size_t slot = pool_.acquire(req.prefix_group, prompt);
  slots_[slot] = ActiveSlot{request_id};
}

void BatchedGenerationScheduler::retire(std::size_t pool_slot,
                                        StopReason reason) {
  const std::size_t id = slots_[pool_slot]->request_id;
  results_[id].stop_reason = reason;
  completed_[id] = true;
  slots_[pool_slot].reset();
  pool_.release(pool_slot);
}

void BatchedGenerationScheduler::tick(core::ExecContext& ctx) {
  gpusim::Device& dev = ctx.device();
  ++ticks_;

  // Serial trie flush: advertise every prompt block the PREVIOUS tick's
  // parallel appends completed, before this tick's admissions look the
  // prefix up. Trie writes therefore never race the decode section.
  pool_.flush_registrations();

  // Admission: backfill every free slot from the FIFO queue.
  while (pool_.has_free() && !queue_.empty()) {
    admit(queue_.front());
    queue_.pop_front();
  }

  // Capacity check, per slot so one exhausted sequence never blocks the
  // rest of the batch: prepare_append, run SERIALLY in slot order, makes
  // this tick's position writable — it allocates (or CoW-splits) the
  // block the position lands in — or reports a full slot or an exhausted
  // pool, which retires the slot kv_cache_full here, deterministically.
  // The parallel appends below are then pure row writes. A retirement
  // frees blocks that later slots' prepares may immediately reuse — still
  // deterministic, the loop is serial.
  std::vector<TickSlot> tick_slots;
  tick_slots.reserve(slots_.size());
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].has_value()) continue;
    core::PagedKVSlot& kv_slot = pool_.slot(s);
    if (!kv_slot.prepare_append()) {
      retire(s, StopReason::kKvCacheFull);
      continue;
    }
    TickSlot ts;
    ts.pool_slot = s;
    ts.request_id = slots_[s]->request_id;
    ts.kv = &kv_slot;
    ts.pos = kv_slot.tokens();
    tick_slots.push_back(std::move(ts));
  }
  if (tick_slots.empty()) return;

  const core::KvPrecision kv_precision = pool_.precision();

  // Embed every sequence's input at its own context position: prompt
  // tokens first (prefill and decode share this one code path), then the
  // emission stream.
  const std::size_t d = model_.d_model();
  tensor::MatrixF rows(tick_slots.size(), d);
  for (std::size_t i = 0; i < tick_slots.size(); ++i) {
    const TickSlot& ts = tick_slots[i];
    const GenerationRequest& req = requests_[ts.request_id];
    const std::int32_t token =
        input_token(req, results_[ts.request_id].tokens, ts.pos);
    const tensor::MatrixF row = req.embed(token, ts.pos);
    assert(row.rows() == 1 && row.cols() == d);
    for (std::size_t c = 0; c < d; ++c) rows(i, c) = row(0, c);
  }

  // One active slot takes the per-slot path: the batched launches would
  // be the same launches, and a fault there retires the slot instead of
  // being retried — nn::generate's fault contract.
  bool per_slot = tick_slots.size() == 1;
  if (!per_slot) {
    ++batched_ticks_;
    std::vector<TickSlot*> live;
    live.reserve(tick_slots.size());
    for (auto& ts : tick_slots) live.push_back(&ts);
    try {
      fused_step(ctx, model_, kv_precision, std::move(live), rows);
    } catch (const gpusim::KernelFault& f) {
      // Shared-kernel fault: the aborted batched attempt has no effect
      // (it committed no position; the per-slot steps rewrite the rows it
      // appended). Degrade this tick to per-slot stepping so any
      // persistent fault becomes attributable.
      for (auto& ts : tick_slots) {
        ts.state = TickSlot::State::kRunning;
        ts.fault_kernel.clear();
      }
      dev.note_fallback({"batched_decode", "per_slot_decode", f.kernel(),
                         std::string(to_string(f.cause())), gpusim::kNoSlot});
      ++fallback_ticks_;
      per_slot = true;
    }
  }
  if (per_slot) {
    for (std::size_t i = 0; i < tick_slots.size(); ++i) {
      TickSlot& ts = tick_slots[i];
      if (ts.state != TickSlot::State::kRunning) continue;
      try {
        fused_step(ctx, model_, kv_precision, {&ts},
                   tensor::slice_rows(rows, i, 1));
      } catch (const gpusim::KernelFault& f) {
        ts.state = TickSlot::State::kKernelFault;
        ts.fault_kernel = f.kernel();
      }
    }
  }

  // Retire / advance.
  for (TickSlot& ts : tick_slots) {
    switch (ts.state) {
      case TickSlot::State::kOk: {
        auto& res = results_[ts.request_id];
        const GenerationRequest& req = requests_[ts.request_id];
        // Prefill positions (every prompt token but the last) emit
        // nothing: the hidden state is discarded and the slot just
        // advances.
        const std::size_t prompt_len =
            req.prompt_tokens.empty() ? 1 : req.prompt_tokens.size();
        if (ts.pos + 1 < prompt_len) break;
        // Recompute-resume replay: while tokens from a preempted/faulted
        // earlier run remain, the tick rebuilt their KV rows and the
        // outcome is already known — take it verbatim instead of calling
        // select(), whose side effects (streaming hashes, logging) must
        // fire once per token across the request's whole life.
        ActiveSlot& as = *slots_[ts.pool_slot];
        const bool replaying = as.replayed < req.resume_tokens.size();
        const std::int32_t token = replaying
                                       ? req.resume_tokens[as.replayed++]
                                       : req.select(ts.hidden);
        res.tokens.push_back(token);
        if (req.eos_token >= 0 && token == req.eos_token) {
          retire(ts.pool_slot, StopReason::kEos);
        } else if (res.tokens.size() >= req.max_new_tokens) {
          retire(ts.pool_slot, StopReason::kMaxTokens);
        }
        break;
      }
      case TickSlot::State::kKernelFault:
        results_[ts.request_id].fault_kernel = ts.fault_kernel;
        retire(ts.pool_slot, StopReason::kKernelFault);
        break;
      case TickSlot::State::kRunning:
        // Unreachable: every path above resolves the slot.
        assert(false);
        break;
    }
  }
}

std::vector<GenerationResult> BatchedGenerationScheduler::run(
    core::ExecContext& ctx) {
  while (!idle()) tick(ctx);
  return results_;
}

}  // namespace et::nn
