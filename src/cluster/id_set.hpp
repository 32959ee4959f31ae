// A fixed-capacity ordered set of node ids backed by a two-level bitmap.
//
// This is the storage behind the Machine's free-capacity index. The two
// operations that matter are both on simulator hot paths: membership
// updates happen on every allocate/release (one per touched node), and
// ordered iteration happens on every candidate scan the schedulers run.
// A bitmap gives O(1) insert/erase (vs O(log n) tree rebalancing) and
// cache-friendly ascending iteration — node ids are dense
// [0, node_count), so the bitmap is also the smallest representation.
//
// On wide machines (16k+ nodes) a flat bitmap walk is no longer free:
// a nearly-empty or nearly-full set still touches every word (256 words
// at 16384 nodes) per scan, and the schedulers scan many times per pass.
// A summary level fixes that: one bit per 64-word block (4096 ids) says
// "this block has at least one member", with a cached per-block popcount
// maintaining it under O(1) insert/erase. Scans consult the summary at
// block boundaries and jump straight to the next populated block, so a
// scan costs O(set bits + blocks touched) instead of O(capacity/64).
// The flat walk is kept as a differential reference (`*_linear`), used
// as the production path when the build defines COSCHED_FLAT_INDEX;
// tests/width_index_test.cpp fuzzes the two against each other and
// check_summary() re-derives the summary level from the word array.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/types.hpp"

namespace cosched::cluster {

class NodeIdSet {
 public:
  /// Ids per word and words per summary block. A block covers
  /// kWordsPerBlock * 64 = 4096 ids.
  static constexpr std::size_t kWordsPerBlock = 64;

  NodeIdSet() = default;
  explicit NodeIdSet(int capacity) { reset(capacity); }

  /// Empties the set and fixes the id universe to [0, capacity).
  void reset(int capacity) {
    COSCHED_CHECK(capacity >= 0);
    const std::size_t nwords = (static_cast<std::size_t>(capacity) + 63) / 64;
    const std::size_t nblocks = (nwords + kWordsPerBlock - 1) / kWordsPerBlock;
    words_.assign(nwords, 0);
    summary_.assign((nblocks + 63) / 64, 0);
    block_pop_.assign(nblocks, 0);
    capacity_ = capacity;
    size_ = 0;
  }

  int capacity() const { return capacity_; }
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool contains(NodeId id) const {
    COSCHED_CHECK(id >= 0 && id < capacity_);
    return (words_[word_of(id)] >> bit_of(id)) & 1u;
  }

  /// Inserts `id`; returns true if it was newly added.
  bool insert(NodeId id) {
    COSCHED_CHECK(id >= 0 && id < capacity_);
    const std::size_t w = word_of(id);
    std::uint64_t& word = words_[w];
    const std::uint64_t mask = std::uint64_t{1} << bit_of(id);
    if (word & mask) return false;
    word |= mask;
    ++size_;
    const std::size_t blk = w / kWordsPerBlock;
    if (block_pop_[blk]++ == 0) {
      summary_[blk / 64] |= std::uint64_t{1} << (blk % 64);
    }
    return true;
  }

  /// Removes `id`; returns true if it was present.
  bool erase(NodeId id) {
    COSCHED_CHECK(id >= 0 && id < capacity_);
    const std::size_t w = word_of(id);
    std::uint64_t& word = words_[w];
    const std::uint64_t mask = std::uint64_t{1} << bit_of(id);
    if (!(word & mask)) return false;
    word &= ~mask;
    --size_;
    const std::size_t blk = w / kWordsPerBlock;
    if (--block_pop_[blk] == 0) {
      summary_[blk / 64] &= ~(std::uint64_t{1} << (blk % 64));
    }
    return true;
  }

  // --- Ordered scans ---------------------------------------------------------

  /// Smallest member id >= `from`, or capacity() when none remains.
  /// Production dispatch: summary-accelerated unless the build pins the
  /// flat reference path with COSCHED_FLAT_INDEX.
  NodeId next_set_bit(NodeId from) const {
#if defined(COSCHED_FLAT_INDEX)
    return next_set_bit_linear(from);
#else
    return next_set_bit_indexed(from);
#endif
  }

  /// Flat reference scan: walks every word from `from` upward.
  NodeId next_set_bit_linear(NodeId from) const {
    std::uint64_t bits = 0;
    const std::size_t w = first_word_from(from, &bits);
    const std::size_t hit = next_nonempty_word_linear(w, &bits);
    return bit_id(hit, bits);
  }

  /// Summary-accelerated scan: jumps over empty 64-word blocks.
  NodeId next_set_bit_indexed(NodeId from) const {
    std::uint64_t bits = 0;
    const std::size_t w = first_word_from(from, &bits);
    const std::size_t hit = next_nonempty_word_indexed(w, &bits);
    return bit_id(hit, bits);
  }

  /// Forward iteration in ascending id order (the deterministic lowest-id
  /// placement order). The current word's bits are cached in the iterator,
  /// so advancing within a word touches no memory at all; crossing words
  /// goes through the set's block-skipping scan.
  class const_iterator {
   public:
    using value_type = NodeId;

    NodeId operator*() const {
      return static_cast<NodeId>(word_ * 64 +
                                 static_cast<std::size_t>(
                                     std::countr_zero(bits_)));
    }
    const_iterator& operator++() {
      bits_ &= bits_ - 1;  // clear lowest set bit; no memory access
      if (bits_ == 0) {
        word_ = set_->next_nonempty_word(word_ + 1, &bits_);
      }
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return word_ == other.word_ && bits_ == other.bits_;
    }
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    friend class NodeIdSet;
    const_iterator(const NodeIdSet* set, std::size_t word) : set_(set) {
      word_ = set_->next_nonempty_word(word, &bits_);
    }

    const NodeIdSet* set_ = nullptr;
    std::size_t word_ = 0;
    std::uint64_t bits_ = 0;
  };

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, words_.size()); }

  friend bool operator==(const NodeIdSet& a, const NodeIdSet& b) {
    return a.capacity_ == b.capacity_ && a.words_ == b.words_;
  }
  friend bool operator!=(const NodeIdSet& a, const NodeIdSet& b) {
    return !(a == b);
  }

  // --- Introspection ---------------------------------------------------------

  /// Empty blocks jumped over by indexed scans since the last take. Pure
  /// reporting (the `index_blocks_skipped_wall` counter); never feeds a
  /// decision. Only valid when all scans of this set run on one thread —
  /// true for the Machine's sets, which are iterated on the controller
  /// thread only.
  std::uint64_t take_blocks_skipped() const {
    const std::uint64_t n = blocks_skipped_;
    blocks_skipped_ = 0;
    return n;
  }

  /// Re-derives the summary bitmap and per-block popcounts from the word
  /// array and aborts on any mismatch. Fuzz/test hook.
  void check_summary() const {
    for (std::size_t blk = 0; blk < block_pop_.size(); ++blk) {
      std::uint32_t pop = 0;
      const std::size_t lo = blk * kWordsPerBlock;
      const std::size_t hi = std::min(words_.size(), lo + kWordsPerBlock);
      for (std::size_t w = lo; w < hi; ++w) {
        pop += static_cast<std::uint32_t>(std::popcount(words_[w]));
      }
      COSCHED_CHECK_MSG(pop == block_pop_[blk],
                        "block popcount drifted: block "
                            << blk << " caches " << block_pop_[blk]
                            << ", rescan found " << pop);
      const bool bit =
          (summary_[blk / 64] >> (blk % 64)) & 1u;
      COSCHED_CHECK_MSG(bit == (pop > 0),
                        "summary bit drifted on block "
                            << blk << ": bit " << bit << ", popcount " << pop);
    }
    std::uint32_t total = 0;
    for (std::uint32_t pop : block_pop_) total += pop;
    COSCHED_CHECK_MSG(total == static_cast<std::uint32_t>(size_),
                      "size drifted: cached " << size_ << ", popcounts sum to "
                                              << total);
  }

 private:
  static std::size_t word_of(NodeId id) {
    return static_cast<std::size_t>(id) / 64;
  }
  static unsigned bit_of(NodeId id) {
    return static_cast<unsigned>(id) % 64;
  }

  /// Start-of-scan helper: the word holding `from` with bits below `from`
  /// masked off. Returns the word index; `*bits` holds the masked word
  /// (0 when `from` is out of range, with the index past the last word).
  /// When the masked word is empty the index advances past it — the
  /// next_nonempty_word scans reload words whole, so handing them the
  /// exhausted word would resurrect bits below `from`.
  std::size_t first_word_from(NodeId from, std::uint64_t* bits) const {
    if (from < 0) from = 0;
    if (static_cast<std::size_t>(from) >= static_cast<std::size_t>(capacity_)) {
      *bits = 0;
      return words_.size();
    }
    std::size_t w = word_of(from);
    *bits = words_[w] & (~std::uint64_t{0} << bit_of(from));
    if (*bits == 0) ++w;
    return w;
  }

  /// Id of the lowest bit in `bits` at word `w`, or capacity() at end.
  NodeId bit_id(std::size_t w, std::uint64_t bits) const {
    if (w >= words_.size()) return static_cast<NodeId>(capacity_);
    return static_cast<NodeId>(
        w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
  }

  /// First nonempty word at index >= `w` — but when `*bits` is already
  /// nonzero, `w` itself is the answer (the caller pre-masked it). Loads
  /// the winning word's bits into `*bits`; returns words_.size() (with
  /// *bits == 0) when the set has no member at or beyond `w`.
  std::size_t next_nonempty_word(std::size_t w, std::uint64_t* bits) const {
#if defined(COSCHED_FLAT_INDEX)
    return next_nonempty_word_linear(w, bits);
#else
    return next_nonempty_word_indexed(w, bits);
#endif
  }

  std::size_t next_nonempty_word_linear(std::size_t w,
                                        std::uint64_t* bits) const {
    if (*bits != 0) return w;
    const std::size_t nwords = words_.size();
    while (w < nwords) {
      const std::uint64_t word = words_[w];
      if (word != 0) {
        *bits = word;
        return w;
      }
      ++w;
    }
    *bits = 0;
    return nwords;
  }

  std::size_t next_nonempty_word_indexed(std::size_t w,
                                         std::uint64_t* bits) const {
    if (*bits != 0) return w;
    const std::size_t nwords = words_.size();
    while (w < nwords) {
      if ((w % kWordsPerBlock) == 0) {
        // Block boundary: consult the summary and jump straight to the
        // next populated block instead of walking empty words.
        const std::size_t blk = w / kWordsPerBlock;
        std::size_t sw = blk / 64;
        std::uint64_t sbits = summary_[sw] & (~std::uint64_t{0} << (blk % 64));
        while (sbits == 0) {
          if (++sw >= summary_.size()) {
            *bits = 0;
            return nwords;
          }
          sbits = summary_[sw];
        }
        const std::size_t next_blk =
            sw * 64 + static_cast<std::size_t>(std::countr_zero(sbits));
        blocks_skipped_ += next_blk - blk;
        w = next_blk * kWordsPerBlock;
      }
      const std::uint64_t word = words_[w];
      if (word != 0) {
        *bits = word;
        return w;
      }
      ++w;
    }
    *bits = 0;
    return nwords;
  }

  std::vector<std::uint64_t> words_;
  /// Summary level: bit `b` set iff block `b` (64 consecutive words) has
  /// at least one member; maintained by the cached per-block popcounts.
  std::vector<std::uint64_t> summary_;
  std::vector<std::uint32_t> block_pop_;
  int capacity_ = 0;
  int size_ = 0;
  /// Scan telemetry; see take_blocks_skipped().
  mutable std::uint64_t blocks_skipped_ = 0;
};

}  // namespace cosched::cluster
