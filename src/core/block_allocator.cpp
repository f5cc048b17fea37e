#include "core/block_allocator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace et::core {

// ---------------------------------------------------------------------------
// BlockAllocator

namespace {

/// Symmetric int8 quantization of one row against its own amax — the
/// same scheme as quant::quantize_weight, restated here so core stays
/// below et_quant in the library graph. A pure function of `src`:
/// deterministic at any thread count, identical whichever slot writes
/// the row.
void quantize_row(std::span<const float> src, std::int8_t* dst,
                  float& scale) {
  float amax = 0.0f;
  for (const float v : src) amax = std::max(amax, std::abs(v));
  scale = amax > 0.0f ? amax / 127.0f : 1.0f;
  for (std::size_t c = 0; c < src.size(); ++c) {
    dst[c] = static_cast<std::int8_t>(
        std::clamp(std::round(src[c] / scale), -127.0f, 127.0f));
  }
}

}  // namespace

BlockAllocator::BlockAllocator(std::size_t num_blocks, std::size_t block_tokens,
                               std::size_t k_width,
                               const std::vector<std::size_t>& v_widths,
                               KvPrecision precision)
    : block_tokens_(block_tokens), precision_(precision) {
  if (num_blocks == 0 || block_tokens == 0 || k_width == 0) {
    throw std::invalid_argument(
        "BlockAllocator: num_blocks, block_tokens and k_width must be "
        "nonzero");
  }
  if (v_widths.empty()) {
    throw std::invalid_argument("BlockAllocator: v_widths must be non-empty");
  }
  const bool int8 = precision_ == KvPrecision::kInt8;
  const std::size_t rows = num_blocks * block_tokens;
  planes_.reserve(2 * v_widths.size());
  for (const std::size_t vw : v_widths) {
    if (vw == 0) {
      throw std::invalid_argument("BlockAllocator: zero v_width");
    }
    for (const std::size_t width : {k_width, vw}) {
      Plane& p = planes_.emplace_back();
      p.width = width;
      p.row_bytes = width * (int8 ? 1 : sizeof(float));
      p.bytes.resize(rows * p.row_bytes);
      // kInt8: the per-row reconstruction scale the block metadata
      // carries, counted in the row's bytes.
      if (int8) p.scales.assign(rows, 1.0f);
      row_bytes_ += p.row_bytes + (int8 ? sizeof(float) : 0);
    }
  }
  refs_.assign(num_blocks, 0);
  free_.reserve(num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    // LIFO pop order hands out block 0 first — allocation order is part
    // of the deterministic transcript (which request OOMs first).
    free_.push_back(static_cast<BlockId>(num_blocks - 1 - b));
  }
}

std::optional<BlockId> BlockAllocator::allocate() {
  if (free_.empty()) return std::nullopt;
  const BlockId b = free_.back();
  free_.pop_back();
  assert(refs_[b] == 0);
  refs_[b] = 1;
  return b;
}

void BlockAllocator::add_ref(BlockId block) {
  if (refs_.at(block) == 0) {
    throw std::logic_error("BlockAllocator::add_ref: block " +
                           std::to_string(block) + " is free");
  }
  ++refs_[block];
}

bool BlockAllocator::release(BlockId block) {
  if (refs_.at(block) == 0) {
    throw std::logic_error("BlockAllocator::release: block " +
                           std::to_string(block) + " is already free");
  }
  if (--refs_[block] > 0) return false;
  free_.push_back(block);
  return true;
}

std::size_t BlockAllocator::row(BlockId block, std::size_t offset) const {
  assert(refs_.at(block) > 0 && offset < block_tokens_);
  return block * block_tokens_ + offset;
}

void BlockAllocator::store(Plane& p, std::size_t r,
                           std::span<const float> src) {
  assert(src.size() == p.width);
  std::int8_t* dst = p.bytes.data() + r * p.row_bytes;
  if (p.scales.empty()) {
    std::memcpy(dst, src.data(), p.row_bytes);
  } else {
    quantize_row(src, dst, p.scales[r]);
  }
}

void BlockAllocator::load(const Plane& p, std::size_t r,
                          std::span<float> dst) {
  assert(dst.size() == p.width);
  const std::int8_t* src = p.bytes.data() + r * p.row_bytes;
  if (p.scales.empty()) {
    std::memcpy(dst.data(), src, p.row_bytes);
    return;
  }
  const float scale = p.scales[r];
  for (std::size_t c = 0; c < dst.size(); ++c) {
    dst[c] = static_cast<float>(src[c]) * scale;
  }
}

float BlockAllocator::scale(const Plane& p, std::size_t r) {
  return p.scales.empty() ? 1.0f : p.scales[r];
}

void BlockAllocator::copy_rows(BlockId from, BlockId to, std::size_t rows) {
  assert(rows <= block_tokens_ && from != to);
  const std::size_t f = from * block_tokens_;
  const std::size_t t = to * block_tokens_;
  // A block's rows are contiguous in every plane. Bytes and scales are
  // copied verbatim — re-quantizing a reconstruction would compound error
  // and break the CoW-is-invisible contract.
  for (Plane& p : planes_) {
    std::memcpy(p.bytes.data() + t * p.row_bytes,
                p.bytes.data() + f * p.row_bytes, rows * p.row_bytes);
    if (!p.scales.empty()) {
      std::copy_n(p.scales.begin() + f, rows, p.scales.begin() + t);
    }
  }
}

// ---------------------------------------------------------------------------
// PagedKVSlot

bool PagedKVSlot::cow_block(std::size_t bi, std::size_t rows) {
  BlockAllocator& alloc = pool_->alloc_;
  const auto nb = alloc.allocate();
  if (!nb) return false;
  alloc.copy_rows(table_[bi], *nb, rows);
  pool_->release_block(table_[bi]);  // ref > 1 here, never frees
  table_[bi] = *nb;
  ++pool_->stats_.cow_splits;
  return true;
}

bool PagedKVSlot::prepare_append() {
  const std::size_t pos = rows_;
  if (pos >= pool_->max_context_) return false;
  // A row below shared_rows_ is already resident in a seeded shared block.
  if (pos >= shared_rows_) {
    const std::size_t bt = pool_->alloc_.block_tokens();
    const std::size_t bi = pos / bt;
    const std::size_t off = pos % bt;
    if (bi == table_.size()) {
      const auto b = pool_->alloc_.allocate();
      if (!b) return false;
      table_.push_back(*b);
    } else if (pool_->alloc_.ref_count(table_[bi]) > 1) {
      // Another table aliases this block (a shared prefix about to
      // diverge, or a later arrival that seeded off our prompt): never
      // write a block with refcount > 1 — split it, preserving the rows
      // already committed to it.
      if (!cow_block(bi, off)) return false;
    }
    // About to overwrite row `off`: any trie advertisement claiming more
    // rows of this block no longer describes its contents.
    pool_->trie_.invalidate(table_[bi], off);
  }
  prepared_ = true;
  return true;
}

void PagedKVSlot::append(std::size_t layer, std::span<const float> k_row,
                         std::span<const float> v_row) {
  BlockAllocator& alloc = pool_->alloc_;
  const std::size_t kw = alloc.k_width();
  const std::size_t vw = alloc.v_width(layer);
  const std::size_t pos = rows_;
  // Checks precede any write: a rejected append leaves both planes
  // untouched.
  if (pos >= pool_->max_context_) {
    throw std::length_error("PagedKVSlot::append: cache is full (" +
                            std::to_string(pool_->max_context_) + " rows)");
  }
  if (!prepared_) {
    throw std::logic_error("PagedKVSlot::append: row " + std::to_string(pos) +
                           " was not prepared (call prepare_append first)");
  }
  if (k_row.size() != kw || v_row.size() != vw) {
    throw std::invalid_argument(
        "PagedKVSlot::append: row width mismatch (k " +
        std::to_string(k_row.size()) + ", v " + std::to_string(v_row.size()) +
        ", cache k " + std::to_string(kw) + ", cache v " + std::to_string(vw) +
        ")");
  }
  // A row below shared_rows_ is already resident in a seeded shared
  // block, bit-identical by the prefix_group contract, and the block may
  // be aliased by other tables: skip the write. The decode tick still
  // computed this position's math, so transcripts, launches and device
  // time are identical with sharing on or off; only memory changes.
  if (pos < shared_rows_) return;
  const std::size_t bt = alloc.block_tokens();
  const BlockId b = table_[pos / bt];
  // Precision-aware row write: a plain copy on fp32 pools, a
  // deterministic per-row quantization (scale recorded in the block
  // metadata) on int8 ones.
  alloc.store_k_row(layer, b, pos % bt, k_row);
  alloc.store_v_row(layer, b, pos % bt, v_row);
}

void PagedKVSlot::commit() {
  if (!prepared_) {
    throw std::logic_error("PagedKVSlot::commit: no prepared row");
  }
  prepared_ = false;
  const std::size_t done = ++rows_;
  if (group_ == kNoPrefixGroup || done > prompt_.size()) return;
  const std::size_t bt = pool_->alloc_.block_tokens();
  if (done == prompt_.size() || done % bt == 0) {
    // The block holding row done-1 now carries its full share of the
    // prompt. Advertising waits for the serial flush, before the next
    // admissions look the prefix up.
    pending_.emplace_back(done, table_[(done - 1) / bt]);
  }
}

std::size_t PagedKVSlot::checked_rows(std::size_t rows) const {
  if (rows > rows_ + (prepared_ ? 1 : 0)) {
    throw std::out_of_range("PagedKVSlot: gather of " + std::to_string(rows) +
                            " rows past the " + std::to_string(rows_) +
                            " committed");
  }
  return rows;
}

tensor::MatrixF PagedKVSlot::k_prefix(std::size_t layer,
                                      std::size_t rows) const {
  const BlockAllocator& alloc = pool_->alloc_;
  const std::size_t bt = alloc.block_tokens();
  tensor::MatrixF out(checked_rows(rows), alloc.k_width());
  for (std::size_t r = 0; r < rows; ++r) {
    alloc.load_k_row(layer, table_[r / bt], r % bt, out.row(r));
  }
  return out;
}

tensor::MatrixF PagedKVSlot::v_prefix(std::size_t layer,
                                      std::size_t rows) const {
  const BlockAllocator& alloc = pool_->alloc_;
  const std::size_t bt = alloc.block_tokens();
  tensor::MatrixF out(checked_rows(rows), alloc.v_width(layer));
  for (std::size_t r = 0; r < rows; ++r) {
    alloc.load_v_row(layer, table_[r / bt], r % bt, out.row(r));
  }
  return out;
}

// ---------------------------------------------------------------------------
// PagedKVPool

namespace {
std::size_t resolve_num_blocks(std::size_t num_slots, std::size_t max_context,
                               const PagedKVOptions& opts) {
  if (opts.num_blocks != 0) return opts.num_blocks;
  const std::size_t bt = opts.block_tokens;
  if (bt == 0) return 0;  // BlockAllocator throws the real error
  return num_slots * ((max_context + bt - 1) / bt);
}
}  // namespace

PagedKVPool::PagedKVPool(std::size_t num_slots, std::size_t max_context,
                         std::size_t k_width,
                         const std::vector<std::size_t>& v_widths,
                         PagedKVOptions opts)
    : alloc_(resolve_num_blocks(num_slots, max_context, opts),
             opts.block_tokens, k_width, v_widths, opts.precision),
      trie_(alloc_.block_tokens()),
      max_context_(max_context),
      // Whole-context blocks (the contiguous layout) cannot share a
      // proper prefix without copying everything, so sharing is
      // meaningful only when a block is smaller than the context.
      sharing_(alloc_.block_tokens() < max_context) {
  if (num_slots == 0) {
    throw std::invalid_argument("PagedKVPool: num_slots must be nonzero");
  }
  slots_.resize(num_slots);
  free_slots_.reserve(num_slots);
  for (std::size_t s = 0; s < num_slots; ++s) {
    slots_[s].pool_ = this;
    free_slots_.push_back(num_slots - 1 - s);  // pop order: slot 0 first
  }
}

std::size_t PagedKVPool::acquire() {
  if (free_slots_.empty()) {
    throw std::runtime_error("PagedKVPool::acquire: no free slot");
  }
  const std::size_t s = free_slots_.back();
  free_slots_.pop_back();
  assert(slots_[s].table_.empty() && slots_[s].tokens() == 0);
  return s;
}

std::size_t PagedKVPool::acquire(std::uint64_t group,
                                 std::span<const std::int32_t> prompt) {
  const std::size_t s = acquire();
  if (!sharing_ || group == kNoPrefixGroup || prompt.empty()) return s;
  PagedKVSlot& sl = slots_[s];
  sl.group_ = group;
  sl.prompt_.assign(prompt.begin(), prompt.end());
  if (prompt.size() < 2) return s;  // nothing shareable below the cap
  // Cap at prompt.size()-1: the last prompt position always decodes
  // locally — its hidden state feeds the first select() — which also
  // guarantees a shared-everything request still makes its first append
  // inside (or right after) the aliased region, CoW-splitting naturally.
  const PrefixTrie::Match m = trie_.lookup(group, prompt, prompt.size() - 1);
  if (m.tokens == 0) return s;
  for (const BlockId b : m.blocks) {
    alloc_.add_ref(b);
    sl.table_.push_back(b);
  }
  // The row count stays at ZERO: the decode tick recomputes every shared
  // position's math (identical launches and device time with sharing on
  // or off — the sharing-differential's bit-identical-metrics contract);
  // appends below shared_rows_ just skip the write. Sharing buys memory,
  // not ticks.
  sl.shared_rows_ = m.tokens;
  ++stats_.prefix_hits;
  stats_.prefix_shared_tokens += m.tokens;
  return s;
}

void PagedKVPool::release(std::size_t slot) {
  if (slot >= slots_.size() ||
      std::find(free_slots_.begin(), free_slots_.end(), slot) !=
          free_slots_.end()) {
    throw std::invalid_argument("PagedKVPool::release: slot " +
                                std::to_string(slot) +
                                " is not an acquired slot");
  }
  // Preemption, retry-recompute, cancel and normal retirement all end
  // here: REFCOUNT DECREMENT per table entry, not slot truncation. A
  // block a later request still aliases survives; the rest free (and
  // drop out of the trie), so a drained pool is back to zero used bytes.
  // An uncommitted position goes with its slot.
  for (const BlockId b : slots_[slot].table_) release_block(b);
  slots_[slot] = PagedKVSlot();
  slots_[slot].pool_ = this;
  free_slots_.push_back(slot);
}

void PagedKVPool::release_block(BlockId b) {
  if (alloc_.release(b)) trie_.erase_block(b);
}

void PagedKVPool::flush_registrations() {
  for (PagedKVSlot& sl : slots_) {  // slot order: deterministic
    for (const auto& [prefix_len, block] : sl.pending_) {
      trie_.insert(sl.group_,
                   std::span<const std::int32_t>(sl.prompt_.data(), prefix_len),
                   block);
    }
    sl.pending_.clear();
  }
}

}  // namespace et::core
