// Paged KV storage (docs/serving.md "Paged KV and prefix sharing"): the
// vLLM PagedAttention memory model (Kwon et al., PAPERS.md) applied to
// this repo's per-layer KV planes. Instead of one contiguous
// max_context-row cache per slot per layer, KV rows live in fixed-size
// BLOCKS of `block_tokens` rows; each serving slot holds a block TABLE
// mapping logical token index -> (block, offset), and blocks are
// refcounted so requests with a common prompt prefix can alias the same
// physical rows (copy-on-write split on the first divergent append).
//
// Layer geometry: one block id spans EVERY layer — block b owns row band
// [b*block_tokens, (b+1)*block_tokens) of each layer's K plane (k_width
// wide) and V plane (that layer's v_width: d_model dense, Σkept
// condensed, H·kept folded — the PR-5 widths, preserved inside the block
// geometry). One table per slot therefore serves all layers, which is
// what lets the scheduler allocate/CoW once per position, not per layer.
//
// Determinism: allocation order is part of the observable transcript
// (which request OOMs first), so all allocation and CoW happens in the
// scheduler's SERIAL prepare phase (PagedKVSlot::prepare_append, called
// slot-by-slot before the parallel decode section) and the free list is
// LIFO — the same script yields the same block ids at any thread count.
// The parallel per-slot appends are then pure row writes, and a position
// becomes part of a slot's context only at its serial commit().
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "core/prefix_trie.hpp"
#include "tensor/matrix.hpp"

namespace et::core {

/// Storage precision of the pooled KV planes. kFp32 is the lossless
/// reference layout; kInt8 stores every K/V row as symmetric int8 with
/// one FP32 reconstruction scale per row per plane, held in the block
/// metadata (scale = amax/127 over that row alone, so quantization is a
/// pure function of the appended row — deterministic at any thread count
/// and identical whether the row is written by its first author or
/// skipped under prefix sharing). Gathers reconstruct FP32, so decode
/// math is unchanged in shape and bounded-error in value
/// (docs/quantization.md).
enum class KvPrecision : std::uint8_t { kFp32, kInt8 };

[[nodiscard]] constexpr std::string_view to_string(KvPrecision p) noexcept {
  switch (p) {
    case KvPrecision::kFp32: return "fp32";
    case KvPrecision::kInt8: return "int8";
  }
  return "?";
}

/// Round-trip inverse of to_string (the PR-8 parsing convention): parse a
/// CLI token or config value; nullopt on junk. Named for its enum because
/// C++ cannot overload core::from_string on return type alone.
[[nodiscard]] constexpr std::optional<KvPrecision> kv_precision_from_string(
    std::string_view name) noexcept {
  constexpr KvPrecision kAll[] = {KvPrecision::kFp32, KvPrecision::kInt8};
  for (KvPrecision p : kAll) {
    if (to_string(p) == name) return p;
  }
  return std::nullopt;
}

/// Default KV block granularity (tokens per block).
inline constexpr std::size_t kDefaultKvBlockTokens = 16;

/// Paged-pool shape knobs, carried alongside the model geometry. Prefix
/// sharing is not a pool knob: a request opts in through its
/// DecodeParams::prefix_group (kNoPrefixGroup, the default, opts out).
struct PagedKVOptions {
  /// Rows per block (nonzero; BlockAllocator rejects 0). A block as long
  /// as max_context is the contiguous layout: one block per slot, and
  /// prefix sharing off — whole-context blocks can never share a proper
  /// prefix without copying everything.
  std::size_t block_tokens = kDefaultKvBlockTokens;
  /// Physical blocks in the pool; 0 = num_slots * ceil(max_context /
  /// block_tokens), the capacity at which no slot can run out of blocks
  /// before it reaches max_context (per-slot demand never exceeds
  /// ceil(max_context/block_tokens) blocks). Smaller values make block
  /// exhaustion a reachable, typed kv_cache_full stop.
  std::size_t num_blocks = 0;
  /// Plane storage precision. kInt8 shrinks every KV element from 4
  /// bytes to 1 (+ one FP32 scale per row per plane in block metadata),
  /// so kv_bytes / kv_bytes_used drop to roughly a quarter of the fp32
  /// layout and the same pool holds ~2× the resident batch of a
  /// half-precision one (bench/ablation_serving's capacity row).
  KvPrecision precision = KvPrecision::kFp32;
};

/// Pool-lifetime sharing statistics (monotonic; serving gauges).
struct PagedKVStats {
  std::uint64_t prefix_hits = 0;  ///< admissions that aliased >= 1 block
  std::uint64_t prefix_shared_tokens = 0;  ///< KV rows seeded from the trie
  std::uint64_t cow_splits = 0;  ///< blocks copied on a divergent append
};

/// Refcounted fixed-size KV block storage for every layer. Rows are
/// addressed as (layer, block, offset); `allocate` hands out blocks at
/// refcount 1 from a LIFO free list, `add_ref`/`release` track table
/// aliases, and `copy_rows` is the CoW primitive. The allocator knows
/// nothing about slots, prompts or the trie — that is PagedKVPool's job.
class BlockAllocator {
 public:
  /// Throws std::invalid_argument on zero blocks/block_tokens/k_width,
  /// empty v_widths, or a zero v_width entry.
  BlockAllocator(std::size_t num_blocks, std::size_t block_tokens,
                 std::size_t k_width, const std::vector<std::size_t>& v_widths,
                 KvPrecision precision = KvPrecision::kFp32);

  [[nodiscard]] KvPrecision precision() const noexcept { return precision_; }

  [[nodiscard]] std::size_t num_blocks() const noexcept { return refs_.size(); }
  [[nodiscard]] std::size_t block_tokens() const noexcept {
    return block_tokens_;
  }
  [[nodiscard]] std::size_t num_layers() const noexcept {
    return planes_.size() / 2;
  }
  [[nodiscard]] std::size_t k_width() const noexcept {
    return planes_[0].width;
  }
  [[nodiscard]] std::size_t v_width(std::size_t layer) const {
    return planes_.at(2 * layer + 1).width;
  }

  [[nodiscard]] std::size_t free_blocks() const noexcept {
    return free_.size();
  }
  [[nodiscard]] std::size_t resident_blocks() const noexcept {
    return num_blocks() - free_blocks();
  }

  /// Bytes one block holds across every layer's K and V planes — the
  /// unit of the kv_bytes accounting formula (docs/serving.md):
  ///   kv_bytes_used = resident_blocks * block_tokens * Σ_l (k_width +
  ///   v_width_l) * elem_bytes   (+ 2 scale floats per row per layer
  /// under kInt8, where elem_bytes is 1 instead of sizeof(float)).
  [[nodiscard]] std::size_t bytes_per_block() const noexcept {
    return block_tokens_ * row_bytes_;
  }
  /// Full pool capacity in bytes (the kv_bytes gauge).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return num_blocks() * bytes_per_block();
  }
  /// Bytes of blocks currently held by at least one reference (the
  /// kv_bytes_used gauge — Σ resident blocks).
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return resident_blocks() * bytes_per_block();
  }

  /// Claim a free block at refcount 1; nullopt when the pool is
  /// exhausted (the caller's typed kv_cache_full condition). LIFO.
  [[nodiscard]] std::optional<BlockId> allocate();

  /// One more table references `block`. Throws std::logic_error on a
  /// free block.
  void add_ref(BlockId block);

  /// Drop one reference; returns true when the block became free (the
  /// caller must then un-advertise it, e.g. PrefixTrie::erase_block).
  /// Throws std::logic_error on a block that is already free.
  bool release(BlockId block);

  [[nodiscard]] std::size_t ref_count(BlockId block) const {
    return refs_.at(block);
  }

  /// Precision-aware row IO: one store and one load routine serve the K
  /// and V planes of both precisions. store_* writes `src` in the pool's
  /// storage precision — a plain copy under kFp32; under kInt8 a
  /// symmetric round-to-nearest quantization against the row's own amax
  /// with the reconstruction scale recorded in the block metadata. load_*
  /// fills `dst` with the FP32 reconstruction (exact under kFp32, q·scale
  /// under kInt8). Spans must match the plane width.
  void store_k_row(std::size_t layer, BlockId block, std::size_t offset,
                   std::span<const float> src) {
    store(planes_.at(2 * layer), row(block, offset), src);
  }
  void store_v_row(std::size_t layer, BlockId block, std::size_t offset,
                   std::span<const float> src) {
    store(planes_.at(2 * layer + 1), row(block, offset), src);
  }
  void load_k_row(std::size_t layer, BlockId block, std::size_t offset,
                  std::span<float> dst) const {
    load(planes_.at(2 * layer), row(block, offset), dst);
  }
  void load_v_row(std::size_t layer, BlockId block, std::size_t offset,
                  std::span<float> dst) const {
    load(planes_.at(2 * layer + 1), row(block, offset), dst);
  }

  /// Reconstruction scale stored for a row (1.0 on kFp32 pools) — the
  /// per-block metadata the quant property suite reconstructs against.
  [[nodiscard]] float k_row_scale(std::size_t layer, BlockId block,
                                  std::size_t offset) const {
    return scale(planes_.at(2 * layer), row(block, offset));
  }
  [[nodiscard]] float v_row_scale(std::size_t layer, BlockId block,
                                  std::size_t offset) const {
    return scale(planes_.at(2 * layer + 1), row(block, offset));
  }

  /// CoW split: copy the first `rows` rows of every layer's planes from
  /// `from` into `to` (including the per-row scales on kInt8 pools — a
  /// split must never re-quantize). The destination must already be
  /// allocated.
  void copy_rows(BlockId from, BlockId to, std::size_t rows);

  /// Free-list snapshot (LIFO order), for the invariant/fuzz suite:
  /// free ∩ live must be empty and free + resident must partition the
  /// pool.
  [[nodiscard]] const std::vector<BlockId>& free_list() const noexcept {
    return free_;
  }

 private:
  /// One layer's K or V plane: num_blocks * block_tokens rows of `width`
  /// elements in the pool's storage precision — 4-byte floats under
  /// kFp32, int8 plus one FP32 reconstruction scale per row under kInt8
  /// (`scales` is empty under kFp32).
  struct Plane {
    std::size_t width = 0;
    std::size_t row_bytes = 0;  // width * element bytes
    std::vector<std::int8_t> bytes;
    std::vector<float> scales;
  };

  /// Plane row index of (block, offset).
  [[nodiscard]] std::size_t row(BlockId block, std::size_t offset) const;
  static void store(Plane& p, std::size_t row, std::span<const float> src);
  static void load(const Plane& p, std::size_t row, std::span<float> dst);
  static float scale(const Plane& p, std::size_t row);

  std::size_t block_tokens_;
  std::size_t row_bytes_ = 0;  // Σ_l (k_width + v_width_l) * elem + scales
  KvPrecision precision_ = KvPrecision::kFp32;
  std::vector<Plane> planes_;        // [2l] = layer l's K, [2l + 1] its V
  std::vector<std::uint32_t> refs_;  // per block; 0 == free
  std::vector<BlockId> free_;        // LIFO
};

class PagedKVPool;

/// One serving slot's paged KV state: the block table shared by every
/// layer, the committed row count and the shared-prefix bookkeeping. A
/// decode position takes three steps: prepare_append() (serial: the only
/// code that allocates, CoW-splits or invalidates the trie), append(l, …)
/// once per layer (pure row writes, safe from the parallel decode
/// section) and commit(). Nothing appended is visible — to tokens(), to a
/// registration flush or to the next position — until commit(), so a
/// position abandoned by a fault needs no undo: it is rewritten by the
/// next attempt or dropped with the slot.
class PagedKVSlot {
 public:
  /// Committed context length.
  [[nodiscard]] std::size_t tokens() const noexcept { return rows_; }
  [[nodiscard]] const std::vector<BlockId>& table() const noexcept {
    return table_;
  }
  /// KV rows seeded from another request's blocks at acquire time.
  [[nodiscard]] std::size_t shared_rows() const noexcept {
    return shared_rows_;
  }

  /// Serial pre-decode phase: make row tokens() writable — allocate the
  /// block it lands in, CoW-split that block first if other tables alias
  /// it, and erase trie advertisements its rewrite would falsify. Returns
  /// false when the slot is full or the block pool is exhausted (the
  /// caller retires the request kv_cache_full BEFORE the tick,
  /// deterministically). Idempotent until commit(). Never called
  /// concurrently; the parallel appends that follow are pure row writes.
  [[nodiscard]] bool prepare_append();

  /// Writes row tokens() of `layer` (one K row, one V row) without moving
  /// any cursor; a second append before commit() overwrites it.
  /// std::length_error when the slot is full, std::logic_error when the
  /// row was not prepared, std::invalid_argument on a width mismatch —
  /// checks before writes. A row inside the slot's shared prefix is not
  /// written: the resident shared block already holds bit-identical
  /// content, and other tables may alias it.
  void append(std::size_t layer, std::span<const float> k_row,
              std::span<const float> v_row);

  /// Makes the prepared row part of the context: tokens() grows by one,
  /// and a row that completes a prompt block queues that block's trie
  /// registration for the next flush. std::logic_error when no row is
  /// prepared.
  void commit();

  /// Contiguous copies of `layer`'s first `rows` rows, gathered through
  /// the block table — bit-identical to the rows appended, in order (the
  /// oracle property tests/test_paged_kv.cpp pins across block sizes).
  /// `rows` may reach the prepared row: rows ≤ tokens() + 1 once
  /// prepare_append() succeeded, rows ≤ tokens() otherwise
  /// (std::out_of_range beyond).
  [[nodiscard]] tensor::MatrixF k_prefix(std::size_t layer,
                                         std::size_t rows) const;
  [[nodiscard]] tensor::MatrixF v_prefix(std::size_t layer,
                                         std::size_t rows) const;

 private:
  friend class PagedKVPool;

  /// CoW-split table_[bi], preserving its first `rows` rows. False on
  /// block exhaustion.
  [[nodiscard]] bool cow_block(std::size_t bi, std::size_t rows);
  /// `rows` if the block table holds that many readable rows, else throws.
  [[nodiscard]] std::size_t checked_rows(std::size_t rows) const;

  PagedKVPool* pool_ = nullptr;
  std::vector<BlockId> table_;
  std::size_t rows_ = 0;     // committed context length
  bool prepared_ = false;    // row rows_ is writable
  std::size_t shared_rows_ = 0;
  std::uint64_t group_ = kNoPrefixGroup;
  std::vector<std::int32_t> prompt_;  // retained for trie registration
  // Prompt blocks completed by a commit, to advertise in the trie. Trie
  // writes wait for the serial flush (pool.flush_registrations) so they
  // never race an admission's lookup.
  std::vector<std::pair<std::size_t, BlockId>> pending_;  // (prefix_len, blk)
};

/// The one KV store: per-slot acquire/release, the
/// memory_bytes/used_bytes serving gauges, prompt-aware acquisition that
/// seeds a slot's table from the prefix trie, and the serial
/// registration flush.
class PagedKVPool {
 public:
  /// Per-layer V-plane widths keep folded and condensed layers at their narrow
  /// width (K rows are `k_width` wide); `opts` adds the paged shape. Throws
  /// std::invalid_argument on zero slots / max_context or anything
  /// BlockAllocator rejects.
  PagedKVPool(std::size_t num_slots, std::size_t max_context,
              std::size_t k_width, const std::vector<std::size_t>& v_widths,
              PagedKVOptions opts = {});

  // Slots hold pointers back into this pool; relocating it would dangle
  // them.
  PagedKVPool(const PagedKVPool&) = delete;
  PagedKVPool& operator=(const PagedKVPool&) = delete;
  PagedKVPool(PagedKVPool&&) = delete;
  PagedKVPool& operator=(PagedKVPool&&) = delete;

  [[nodiscard]] std::size_t num_slots() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] std::size_t free_slots() const noexcept {
    return free_slots_.size();
  }
  [[nodiscard]] bool has_free() const noexcept { return !free_slots_.empty(); }
  [[nodiscard]] std::size_t max_context() const noexcept {
    return max_context_;
  }
  [[nodiscard]] std::size_t block_tokens() const noexcept {
    return alloc_.block_tokens();
  }
  [[nodiscard]] bool sharing_enabled() const noexcept { return sharing_; }
  [[nodiscard]] KvPrecision precision() const noexcept {
    return alloc_.precision();
  }

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return alloc_.memory_bytes();
  }
  /// Σ resident blocks × bytes_per_block — block-granular, so aliased
  /// prefixes count ONCE (the whole point). Zero at drain: the trie is
  /// non-owning, releasing every slot frees every block.
  [[nodiscard]] std::size_t used_bytes() const noexcept {
    return alloc_.resident_bytes();
  }

  /// Claim a slot with no sharing (kNoPrefixGroup path).
  [[nodiscard]] std::size_t acquire();

  /// Claim a slot for a request in `group` with `prompt`: the trie's
  /// longest registered prefix (capped at prompt.size() - 1 — the last
  /// prompt position always decodes locally, its hidden state feeds
  /// select()) is aliased into the slot's table with refcounts bumped,
  /// and those rows' later appends skip the write instead of rewriting
  /// resident content. The prompt is retained so the slot can advertise
  /// its own completed blocks.
  [[nodiscard]] std::size_t acquire(std::uint64_t group,
                                    std::span<const std::int32_t> prompt);

  /// Release a slot: every table reference dropped (blocks free when
  /// theirs was the last — the preemption/retry/cancel path routes
  /// through HERE, refcount decrement, not slot truncation), trie
  /// advertisements of freed blocks erased, pending registrations
  /// dropped. Throws std::invalid_argument on out-of-range/double
  /// release.
  void release(std::size_t slot);

  [[nodiscard]] PagedKVSlot& slot(std::size_t i) { return slots_.at(i); }
  [[nodiscard]] const PagedKVSlot& slot(std::size_t i) const {
    return slots_.at(i);
  }

  /// Serial flush of every slot's completed-prompt-block registrations
  /// into the trie — the scheduler calls this at the top of each tick,
  /// before admissions, so trie writes never race the parallel decode
  /// section.
  void flush_registrations();

  [[nodiscard]] const BlockAllocator& allocator() const noexcept {
    return alloc_;
  }
  [[nodiscard]] const PrefixTrie& trie() const noexcept { return trie_; }
  [[nodiscard]] const PagedKVStats& stats() const noexcept { return stats_; }

 private:
  friend class PagedKVSlot;

  /// Drop one reference; erases the trie advertisement when the block
  /// frees.
  void release_block(BlockId b);

  BlockAllocator alloc_;
  PrefixTrie trie_;
  std::size_t max_context_;
  bool sharing_;
  std::vector<PagedKVSlot> slots_;
  std::vector<std::size_t> free_slots_;  // LIFO
  PagedKVStats stats_;
};

}  // namespace et::core
